//! End-to-end tests of the `kissc` binary.

use std::io::Write as _;
use std::process::Command;

fn kissc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kissc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("kissc-test-{name}-{}.kc", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

const BUGGY: &str = "
    int g;
    void other() { g = 1; }
    void main() { async other(); assert g == 0; }
";

const CLEAN: &str = "
    int g;
    void other() { g = 1; }
    void main() { async other(); assert g <= 1; }
";

const RACY: &str = "
    int r;
    void w() { r = 1; }
    void main() { async w(); r = 2; }
";

#[test]
fn check_reports_violation_with_exit_1() {
    let path = write_temp("buggy", BUGGY);
    let out = kissc().args(["check"]).arg(&path).output().expect("run kissc");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ASSERTION VIOLATION"), "{stdout}");
    assert!(stdout.contains("replay-validated on the concurrent program: true"), "{stdout}");
    assert!(stdout.contains("thread 1"), "{stdout}");
    let bfs = kissc().args(["check"]).arg(&path).args(["--engine", "bfs"]).output();
    let bfs = bfs.expect("run kissc");
    assert_eq!(bfs.status.code(), Some(1), "{bfs:?}");
    assert!(String::from_utf8_lossy(&bfs.stdout).contains("ASSERTION VIOLATION"), "{bfs:?}");
    std::fs::remove_file(path).ok();
}

#[test]
fn check_clean_program_exits_0() {
    let path = write_temp("clean", CLEAN);
    let out = kissc().args(["check"]).arg(&path).output().expect("run kissc");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("no error found"));
    std::fs::remove_file(path).ok();
}

#[test]
fn race_subcommand_finds_the_race() {
    let path = write_temp("racy", RACY);
    let out = kissc().args(["race"]).arg(&path).arg("r").output().expect("run kissc");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RACE CONDITION"), "{stdout}");
    assert!(stdout.contains("first access"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn transform_prints_parseable_sequential_program() {
    let path = write_temp("transform", BUGGY);
    let out = kissc()
        .args(["transform"])
        .arg(&path)
        .args(["--max-ts", "1"])
        .output()
        .expect("run kissc");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("__raise"), "{text}");
    assert!(text.contains("__schedule"), "{text}");
    assert!(text.contains("__kiss_main"), "{text}");
    kiss_lang::parse_and_lower(&text).expect("transform output must reparse");
    std::fs::remove_file(path).ok();
}

#[test]
fn explore_reports_states_and_verdict() {
    let path = write_temp("explore", BUGGY);
    let out = kissc().args(["explore"]).arg(&path).output().expect("run kissc");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("explored"), "{stdout}");
    assert!(stdout.contains("assertion failure"), "{stdout}");
    // Balanced exploration also finds this bug (it is balanced).
    let out = kissc().args(["explore"]).arg(&path).arg("--balanced").output().expect("run");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    std::fs::remove_file(path).ok();
}

#[test]
fn detectors_summarize_all_three() {
    let path = write_temp("detectors", RACY);
    let out = kissc()
        .args(["detectors"])
        .arg(&path)
        .args(["r", "--runs", "50"])
        .output()
        .expect("run kissc");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("KISS      : race"), "{stdout}");
    assert!(stdout.contains("lockset"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn usage_errors_exit_2() {
    let out = kissc().output().expect("run kissc");
    assert_eq!(out.status.code(), Some(2));
    let out = kissc().args(["frobnicate"]).output().expect("run kissc");
    assert_eq!(out.status.code(), Some(2));
    let out = kissc().args(["check", "/nonexistent/path.kc"]).output().expect("run kissc");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_race_target_is_a_usage_error() {
    let path = write_temp("badtarget", RACY);
    let out = kissc().args(["race"]).arg(&path).arg("nope").output().expect("run kissc");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_file(path).ok();
}

// An unbounded counter: the state space never closes, so only a
// resource bound (steps, deadline, ...) can end the check.
const DIVERGENT: &str = "
    int g;
    void spin() { iter { g = g + 1; } }
    void main() { async spin(); assert g >= 0; }
";

#[test]
fn timeout_flag_reports_deadline_with_exit_3() {
    let path = write_temp("timeout", DIVERGENT);
    let out = kissc()
        .args(["check"])
        .arg(&path)
        .args(["--timeout", "0"])
        .output()
        .expect("run kissc");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("inconclusive"), "{stdout}");
    assert!(stdout.contains("deadline"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn max_steps_flag_reports_steps_with_exit_3() {
    let path = write_temp("maxsteps", DIVERGENT);
    let out = kissc()
        .args(["check"])
        .arg(&path)
        .args(["--max-steps", "500"])
        .output()
        .expect("run kissc");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resource bound exceeded on steps"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn retries_escalate_a_tight_budget_to_a_verdict() {
    let path = write_temp("retries", CLEAN);
    // 10 steps is too tight for this program (it needs ~50), but the
    // doubling ladder reaches a budget that completes the check.
    let args = ["--max-steps", "10", "--max-states", "1000000"];
    let out = kissc().args(["check"]).arg(&path).args(args).output().expect("run kissc");
    assert_eq!(out.status.code(), Some(3), "without retries: {out:?}");
    let out = kissc()
        .args(["check"])
        .arg(&path)
        .args(args)
        .args(["--retries", "4"])
        .output()
        .expect("run kissc");
    assert_eq!(out.status.code(), Some(0), "with retries: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("no error found"));
    std::fs::remove_file(path).ok();
}

#[test]
fn race_subcommand_accepts_bound_flags() {
    let path = write_temp("raceflags", RACY);
    let out = kissc()
        .args(["race"])
        .arg(&path)
        .args(["r", "--timeout", "600", "--max-steps", "1000000", "--retries", "1"])
        .output()
        .expect("run kissc");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("RACE CONDITION"));
    std::fs::remove_file(path).ok();
}

#[cfg(unix)]
#[test]
fn sigint_cancels_the_check_with_exit_3() {
    use std::time::{Duration, Instant};

    let path = write_temp("sigint", DIVERGENT);
    // A long deadline so only the signal can end the run this fast.
    let mut child = kissc()
        .args(["check"])
        .arg(&path)
        .args(["--timeout", "600"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn kissc");
    std::thread::sleep(Duration::from_millis(300));
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status;
        }
        assert!(Instant::now() < deadline, "kissc did not wind down after SIGINT");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(3), "{status:?}");
    let mut stdout = String::new();
    use std::io::Read as _;
    child.stdout.take().unwrap().read_to_string(&mut stdout).expect("read stdout");
    assert!(stdout.contains("cancelled"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn help_lists_every_subcommand_and_the_exit_code_table() {
    let out = kissc().args(["--help"]).output().expect("run kissc");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for subcommand in
        ["kissc check", "kissc race", "kissc transform", "kissc explore", "kissc detectors", "kissc serve", "kissc submit"]
    {
        assert!(stdout.contains(subcommand), "help must list `{subcommand}`:\n{stdout}");
    }
    assert!(stdout.contains("exit codes:"), "{stdout}");
    for line in ["0  no error found", "1  an error was reported", "2  usage", "3  inconclusive", "4  the check itself crashed"] {
        assert!(stdout.contains(line), "exit-code table must mention `{line}`:\n{stdout}");
    }
}

#[test]
fn unknown_flags_are_named_in_the_error() {
    let path = write_temp("unknownflag", CLEAN);
    let out = kissc()
        .args(["check"])
        .arg(&path)
        .args(["--max-step", "5"])
        .output()
        .expect("run kissc");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecognized flag `--max-step`"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[cfg(unix)]
#[test]
fn serve_and_submit_round_trip_with_cache_hits_and_clean_drain() {
    use std::time::{Duration, Instant};

    let program = write_temp("served", RACY);
    let socket = std::env::temp_dir().join(format!("kissc-serve-{}.sock", std::process::id()));
    let mut server = kissc()
        .args(["serve", "--socket"])
        .arg(&socket)
        .args(["--jobs", "2", "--max-steps", "100000", "--max-states", "20000"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn kissc serve");
    // Wait for the socket to exist before submitting.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "server never bound its socket");
        std::thread::sleep(Duration::from_millis(20));
    }

    let submit = |label: &str| {
        let out = kissc()
            .args(["submit"])
            .arg(&program)
            .args(["--race", "r", "--socket"])
            .arg(&socket)
            .output()
            .expect("run kissc submit");
        assert_eq!(out.status.code(), Some(1), "{label}: a race is exit 1: {out:?}");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let cold = submit("cold");
    assert!(cold.contains("[cache miss]"), "{cold}");
    assert!(cold.contains("hit-rate=0.0%"), "{cold}");
    let warm = submit("warm");
    assert!(warm.contains("[cache hit]"), "{warm}");
    assert!(warm.contains("hit-rate=100.0%"), "{warm}");
    // Identical verdict lines modulo the cache marker.
    let verdict = |s: &str| s.lines().next().unwrap().replace("[cache hit]", "").replace("[cache miss]", "");
    assert_eq!(verdict(&cold), verdict(&warm));

    let kill = Command::new("kill")
        .args(["-INT", &server.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = server.try_wait().expect("poll server") {
            break status;
        }
        assert!(Instant::now() < deadline, "server did not drain after SIGINT");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(0), "clean drain exits 0: {status:?}");
    let mut stdout = String::new();
    use std::io::Read as _;
    server.stdout.take().unwrap().read_to_string(&mut stdout).expect("read stdout");
    assert!(stdout.contains("served 2 request(s): 1 cache hit(s), 1 miss(es)"), "{stdout}");
    std::fs::remove_file(program).ok();
}

#[test]
fn submit_without_an_endpoint_is_a_usage_error() {
    let path = write_temp("noendpoint", CLEAN);
    let out = kissc().args(["submit"]).arg(&path).output().expect("run kissc");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--socket or --port"));
    std::fs::remove_file(path).ok();
}
