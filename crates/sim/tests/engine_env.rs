//! `SYNPA_ENGINE` pins the cycle-advancement engine for every chip built
//! afterwards (mirroring `SYNPA_THREADS` for worker counts), so binaries
//! and the differential test wall can switch engines without code changes.
//!
//! All assertions live in one test function: the override is process-global
//! state, and this file is its own test binary, so nothing else can observe
//! the variable while it is set.

use synpa_sim::{ChipConfig, EngineKind};

#[test]
fn synpa_engine_overrides_the_default_engine() {
    // Unset: the workspace default.
    std::env::remove_var("SYNPA_ENGINE");
    assert_eq!(EngineKind::from_env(), None);
    assert_eq!(ChipConfig::thunderx2(1).engine, EngineKind::PerCore);

    // Every valid name pins the engine for subsequently built configs.
    for engine in EngineKind::ALL {
        std::env::set_var("SYNPA_ENGINE", engine.name());
        assert_eq!(EngineKind::from_env(), Some(engine));
        assert_eq!(ChipConfig::thunderx2(1).engine, engine, "{engine}");
        assert_eq!(ChipConfig::thunderx2_full().engine, engine, "{engine}");
    }

    // Whitespace is trimmed; an empty value means "no override".
    std::env::set_var("SYNPA_ENGINE", " percore ");
    assert_eq!(EngineKind::from_env(), Some(EngineKind::PerCore));
    std::env::set_var("SYNPA_ENGINE", "  ");
    assert_eq!(EngineKind::from_env(), None);

    // An explicit pin must never fall back silently: unknown names —
    // including the retired batched/burst/parallel engines — abort, and
    // the message teaches the full valid list.
    for name in ["warp", "batched", "burst", "parallel"] {
        std::env::set_var("SYNPA_ENGINE", name);
        let err = std::panic::catch_unwind(EngineKind::from_env).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains(name) && msg.contains("reference, percore"),
            "panic message {msg:?} must name {name:?} and the valid list"
        );
    }

    std::env::remove_var("SYNPA_ENGINE");
}
