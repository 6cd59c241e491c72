// Fixture: free-threading outside gpf-check.
use std::thread;

pub fn fire_and_forget() {
    thread::spawn(|| {});
}
