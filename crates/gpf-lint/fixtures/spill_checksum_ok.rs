// The one consumer: the stored bytes (or the damaged copy a faulted read
// sees) go straight into `verify_decode`, inside the 10-line window.
pub fn read(frame: &Frame, damaged: Option<Vec<u8>>, out: &mut Vec<u64>) -> bool {
    let stored = frame.payload_unverified();
    let read = damaged.as_deref().unwrap_or(stored);
    verify_decode(frame.kind, read, Some(frame.checksum), frame.records, out)
}
