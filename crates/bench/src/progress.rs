//! Progress notes for the figure binaries.
//!
//! Progress ("ran MittCFQ: ops=800 ebusy=31 ...") goes to **stdout**,
//! prefixed `# `, and is suppressed by `--quiet`. Stderr is reserved for
//! real errors (failed writes, bad flags), so a batch runner that captures
//! stderr sees only failures.
//!
//! Binaries call [`note`] (or [`note_args`] via the `progress!` macro)
//! instead of printing directly — `mitt-lint`'s O001 rule rejects direct
//! `eprintln!` in `crates/bench/src/bin/` to keep it that way.

use std::sync::OnceLock;

/// True when `--quiet` was passed: progress notes are dropped.
pub fn quiet() -> bool {
    static QUIET: OnceLock<bool> = OnceLock::new();
    *QUIET.get_or_init(|| std::env::args().skip(1).any(|a| a == "--quiet"))
}

/// Prints one progress note to stdout (prefixed `# `) unless `--quiet`.
pub fn note(msg: &str) {
    if !quiet() {
        println!("# {msg}");
    }
}

/// [`note`] over preformatted arguments; use via the `progress!` macro.
pub fn note_args(args: std::fmt::Arguments<'_>) {
    if !quiet() {
        println!("# {args}");
    }
}

/// `println!`-style progress note, `--quiet`-suppressible, on stdout.
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        $crate::progress::note_args(format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    // `quiet()` latches process-wide state from argv, so the unit test
    // only checks that it is stable across calls (the test harness never
    // passes --quiet).
    #[test]
    fn quiet_is_latched_and_stable() {
        assert_eq!(super::quiet(), super::quiet());
    }
}
