// Clean twin: the fan-out goes through the workspace pool, and the
// thread identifiers appear only in comments ("thread::scope") and
// strings; the #[cfg(test)] module, which is exempt, spawns directly.
pub fn squares(xs: Vec<u64>) -> Vec<u64> {
    let _ = "no thread::spawn or thread::Builder here";
    tuna_stats::pool::map(4, xs, |_| (), |_, x| x * x)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_may_spawn() {
        assert_eq!(std::thread::spawn(|| 2 + 2).join().unwrap(), 4);
    }
}
