//! Regenerate the thread-scaling sweep (`scaling_threads.json`):
//! measured wall clock and the bit-identity check per thread count.
//! `--quick` runs the reduced preset.
use nvm_bench::experiments::scaling;
use nvm_bench::report::write_json;
use nvm_bench::scale::Scale;

fn main() {
    let scale = if std::env::args().any(|a| a == "--quick") {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let sweep = scaling::run(&scale);
    scaling::render(&sweep).print();
    write_json("scaling_threads", &sweep);
}
