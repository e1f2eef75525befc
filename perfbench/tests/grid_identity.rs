//! The `grid_small` workload scores every cell as the repository's grid
//! does: a pass over a dataset gives the per-cell AUCs of
//! `smartfeat_bench::grid::run_dataset`, untraced and traced alike.

use smartfeat_bench::grid::{run_dataset, GridConfig};
use smartfeat_perfbench::workloads::{Bench, Workload, GRID_SCALE};

#[test]
fn grid_small_pass_scores_like_the_grid() {
    let seed = 42;
    // Diabetes crashes CAAFE (the paper's "-" cell); Tennis does not.
    let datasets: Vec<_> = smartfeat_datasets::all_scaled(GRID_SCALE, seed)
        .into_iter()
        .filter(|d| ["Diabetes", "Tennis"].contains(&d.name))
        .collect();
    let config = GridConfig {
        scale: GRID_SCALE,
        seed,
        ..GridConfig::default()
    };
    let mut expected = Vec::new();
    let mut crashed = 0;
    for ds in &datasets {
        let row = run_dataset(ds, &config);
        expected.push((format!("{}/initial", row.name), row.initial.scores));
        for (method, cell) in row.cells {
            match cell.scores {
                Some(s) => expected.push((format!("{}/{}", row.name, method.name()), s.scores)),
                None => {
                    assert!(cell.note.is_some_and(|n| n.starts_with("failed")));
                    crashed += 1;
                }
            }
        }
    }
    assert_eq!(crashed, 1, "exactly one cell (CAAFE on Diabetes) crashes");

    let bench = Bench::over(Workload::GridSmall, datasets, seed);
    for traced in [false, true] {
        let pass = bench.pass(traced).expect("pass runs");
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        assert_eq!(pass.scores, expected, "traced: {traced}");
    }
}
