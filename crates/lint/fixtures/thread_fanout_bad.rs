// Seeded violation: private thread pools instead of the workspace pool.
pub fn scoped(x: u64) -> u64 {
    std::thread::scope(|s| s.spawn(|| x * x).join().unwrap())
}

pub fn spawned(x: u64) -> u64 {
    std::thread::spawn(move || x * x).join().unwrap()
}

pub fn built(x: u64) -> u64 {
    std::thread::Builder::new().spawn(move || x * x).unwrap().join().unwrap()
}
