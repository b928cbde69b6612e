//! `tune_gemm` is the one writer of wisdom files, so it must never lose
//! one: a file that does not parse is reported with its line number and
//! left byte for byte as it was, and nothing is measured.

use std::process::Command;

#[test]
fn unparseable_wisdom_file_is_reported_and_left_untouched() {
    let dir = std::env::temp_dir().join(format!("lowino-tune-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wisdom.txt");
    let original = b"# lowino wisdom v2\n\
        avx2 exact 16 100 64 128 -> 96 256 256 6 4\n\
        avx2 exact 16 100 -> 1 2\n";
    std::fs::write(&path, original).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_tune_gemm"))
        .arg("--wisdom")
        .arg(&path)
        .output()
        .expect("tune_gemm runs");
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert!(!out.status.success(), "a corrupt wisdom file must fail the run");
    assert!(stderr.contains("line 3"), "the error names the bad line: {stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("auto-tuning"),
        "nothing is measured before the file is read"
    );
    assert_eq!(std::fs::read(&path).unwrap(), original, "the file must be left untouched");
    std::fs::remove_dir_all(&dir).ok();
}
