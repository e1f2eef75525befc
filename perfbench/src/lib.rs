//! End-to-end and per-layer benchmark of the SMARTFEAT reproduction.
//!
//! Three workloads, each a fixed list of operations run in a closed loop
//! (one client, one process, each operation issued after the previous one
//! finishes) for a given number of seconds:
//!
//! - `construct_paper`: SMARTFEAT `one_shot`, default config, on all eight
//!   Table 3 datasets at their paper row counts.
//! - `search_mix`: every search strategy on Insurance, Heart and Tennis,
//!   plus `one_shot` and `evolutionary` under the default cascade ladder.
//! - `grid_small`: the Table 4 grid (4 methods × 8 datasets, five
//!   downstream models) at scale 0.05.
//!
//! The program under test receives only generated datasets and FM handles.
//! End-to-end times are scaled by the host's speed, probed between
//! operations (see [`host`]). An untraced run gives the end-to-end metrics; a traced run times the
//! calls into each layer's public functions from outside (plus the
//! pipeline's own wall-mode metrics report) for the per-layer breakdown.
//! Every operation's output is checked: report invariants, FM accounting
//! against the meters, and a digest compared with the one recorded for the
//! default seed in `expected/digests.tsv`.

pub mod check;
pub mod clock;
pub mod fm;
pub mod host;
pub mod run;
pub mod workloads;
