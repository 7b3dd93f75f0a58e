//! `experiments::threads()` honors the `SYNPA_THREADS` override so CI and
//! tests can pin parallelism — and *rejects* malformed values loudly. A
//! pin like `SYNPA_THREADS=1O` (typo for 10) used to fall back silently
//! to machine parallelism, skewing every measurement the pin was meant to
//! control; now it aborts with the accepted format, mirroring the strict
//! `--engine` parsing.
//!
//! One test function on purpose: environment variables are process-global
//! and the test harness runs functions concurrently.

use synpa_experiments::threads;

/// Runs `threads()` under a pinned `SYNPA_THREADS` value and returns the
/// panic message (the call must abort).
fn panic_message(value: &str) -> String {
    std::env::set_var("SYNPA_THREADS", value);
    let err = std::panic::catch_unwind(threads).unwrap_err();
    err.downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string())
}

#[test]
fn synpa_threads_env_overrides_and_rejects_malformed_values() {
    std::env::remove_var("SYNPA_THREADS");
    let detected = threads();
    assert!(detected >= 1, "fallback must be at least one worker");

    std::env::set_var("SYNPA_THREADS", "7");
    assert_eq!(threads(), 7, "override pins the worker count");

    std::env::set_var("SYNPA_THREADS", " 3 ");
    assert_eq!(threads(), 3, "surrounding whitespace is tolerated");

    std::env::set_var("SYNPA_THREADS", "  ");
    assert_eq!(threads(), detected, "empty value means no override");

    // An explicit pin must never fall back silently: zero, typos and
    // garbage all abort, and the message names the variable and teaches
    // the accepted format.
    for bad in ["0", "1O", "not-a-number", "-2"] {
        let msg = panic_message(bad);
        assert!(
            msg.contains("SYNPA_THREADS"),
            "{bad:?}: panic message {msg:?} lacks the variable name"
        );
    }
    let msg = panic_message("1O");
    assert!(
        msg.contains("positive integer"),
        "panic message {msg:?} should teach the accepted format"
    );

    std::env::remove_var("SYNPA_THREADS");
    assert_eq!(threads(), detected);
}
