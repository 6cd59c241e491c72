// The one consumer: the stored bytes go straight into `verify_decode`,
// inside the 10-line window.
pub fn read(frame: &Frame, out: &mut Vec<u64>) -> bool {
    verify_decode(frame.kind, frame.payload_unverified(), Some(frame.checksum), frame.records, out)
}
