//! Run the extension experiments: restart strategies and NVM write
//! energy by pre-copy policy.
use nvm_bench::experiments::extensions;
use nvm_bench::report::write_json;

fn main() {
    let restart = extensions::run_restart();
    let energy = extensions::run_energy();
    for t in extensions::render(&restart, &energy) {
        t.print();
    }
    write_json("ext_restart_strategies", &restart);
    write_json("ext_energy", &energy);
}
