//! The paper-fidelity fence: every figure binary, run at the default
//! scale, must print exactly its checked-in `golden/<bin>.txt`; in a
//! release build, every binary but `fig09` must also print its
//! `golden/full/<bin>.txt` at the paper's scale (`MOARA_SCALE=full`).
//!
//! The binaries are deterministic simulations (fixed seeds, virtual
//! time), so their tables are byte-identical from run to run and between
//! debug and release builds. A change to the protocol, the planner or
//! the adaptation policy therefore moves a number here, and the golden
//! diff in review *is* the change to the paper's curves. To accept one:
//!
//! ```text
//! cargo run --release -p moara-bench --bin <bin> > crates/bench/tests/golden/<bin>.txt
//! MOARA_SCALE=full cargo run --release -p moara-bench --bin <bin> \
//!     > crates/bench/tests/golden/full/<bin>.txt
//! ```

use std::process::Command;

/// Runs the figure binary at `exe`, at the paper's scale when `full`,
/// and holds its stdout to `golden`, showing both tables when they
/// differ.
fn pinned(exe: &str, golden: &str, full: bool) {
    let mut cmd = Command::new(exe);
    if full {
        cmd.env("MOARA_SCALE", "full");
    } else {
        // A developer's `MOARA_SCALE=full` shell must not fail the
        // default-scale goldens.
        cmd.env_remove("MOARA_SCALE");
    }
    let out = cmd.output().unwrap_or_else(|e| panic!("run {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let printed = String::from_utf8(out.stdout).expect("figure tables are UTF-8");
    assert!(
        printed == golden,
        "{exe} has moved off its golden table\n--- golden\n{golden}--- printed\n{printed}"
    );
}

macro_rules! figures {
    ($($bin:ident),* $(,)?) => {
        const FIGURES: &[&str] = &[$(stringify!($bin)),*];
        $(
            #[test]
            fn $bin() {
                pinned(
                    env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                    include_str!(concat!("golden/", stringify!($bin), ".txt")),
                    false,
                );
            }
        )*
    };
}

figures!(
    fig02_traces,
    fig09_dynamic_maintenance,
    fig10_sensitivity,
    fig11a_sqp_scaling,
    fig11b_sqp_costs,
    fig12a_static_groups,
    fig12b_dynamic_groups,
    fig13a_latency_timeline,
    fig13b_composite,
    fig14_planetlab_cdf,
    fig15_vs_central,
    fig16_bottleneck,
);

/// The paper's scale for the eleven binaries that take ≈ 11 s together
/// in release. `fig09` alone takes
/// ≈ 43 s there and is left out. Release only: a debug build is six
/// times slower, and the tier-1 `cargo test` is one.
#[cfg(not(debug_assertions))]
mod full {
    macro_rules! full_scale {
        ($($bin:ident),* $(,)?) => {
            $(
                #[test]
                fn $bin() {
                    super::pinned(
                        env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                        include_str!(concat!("golden/full/", stringify!($bin), ".txt")),
                        true,
                    );
                }
            )*
        };
    }

    full_scale!(
        fig02_traces,
        fig10_sensitivity,
        fig11a_sqp_scaling,
        fig11b_sqp_costs,
        fig12a_static_groups,
        fig12b_dynamic_groups,
        fig13a_latency_timeline,
        fig13b_composite,
        fig14_planetlab_cdf,
        fig15_vs_central,
        fig16_bottleneck,
    );
}

/// A binary added to `src/bin` without a line above would be a figure
/// nothing pins.
#[test]
fn every_binary_of_the_crate_is_pinned() {
    let mut bins: Vec<String> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
        .expect("read src/bin")
        .map(|f| f.expect("read src/bin").path())
        .map(|path| {
            path.file_stem()
                .expect("a .rs file")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    bins.sort();
    assert_eq!(bins, FIGURES);
}
