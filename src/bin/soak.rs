//! Workspace-root wrapper so `cargo run --release --bin soak` works from
//! the repository root. The campaign lives in [`socbus_chaos::campaign`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(socbus_chaos::campaign::campaign_main(&args));
}
