//! kiss-bench: benchmark harnesses (see bin/).

pub mod runner;
