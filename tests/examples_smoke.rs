//! Runs each example's own `main` under `cargo test`, so every claim an
//! example asserts is checked on every test run and no example logic is
//! copied here. `large_scale` (n = 10⁵) is left out: release CI runs it.

#[path = "../examples/campus_broadcast.rs"]
mod campus_broadcast;
#[path = "../examples/collusion_fig1.rs"]
mod collusion_fig1;
#[path = "../examples/disaster_relief.rs"]
mod disaster_relief;
#[path = "../examples/empty_core_pentagon.rs"]
mod empty_core_pentagon;
#[path = "../examples/highway_line.rs"]
mod highway_line;
#[path = "../examples/live_session.rs"]
mod live_session;
#[path = "../examples/multi_group.rs"]
mod multi_group;
#[path = "../examples/quickstart.rs"]
mod quickstart;

#[test]
fn campus_broadcast_shapley_exact_mc_deficit() {
    campus_broadcast::main();
}

#[test]
fn collusion_fig1_group_deviation_exists_but_no_unilateral_lie() {
    collusion_fig1::main();
}

#[test]
fn disaster_relief_truthfulness_holds() {
    disaster_relief::main();
}

#[test]
fn pentagon_core_is_empty_and_submodularity_fails() {
    empty_core_pentagon::main();
}

#[test]
fn highway_line_shapley_balances_and_mc_runs_deficit() {
    highway_line::main();
}

#[test]
fn live_session_warm_equals_cold_and_balances_every_batch() {
    live_session::main();
}

#[test]
fn multi_group_service_isolates_groups_and_balances_budgets() {
    multi_group::main();
}

#[test]
fn quickstart_mechanisms_run_and_cover_cost() {
    quickstart::main();
}
