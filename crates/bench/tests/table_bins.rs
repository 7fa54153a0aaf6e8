//! `table1` and `table2` take no inputs: any argument is a usage error
//! (exit 2, nothing on stdout), and no arguments print the table.

use std::process::{Command, Output};

const BINS: [&str; 2] = [env!("CARGO_BIN_EXE_table1"), env!("CARGO_BIN_EXE_table2")];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("bin starts")
}

#[test]
fn any_argument_is_a_usage_error() {
    for bin in BINS {
        for args in [&["--bench", "nosuch"][..], &["--scale", "-1"], &["extra"]] {
            let out = run(bin, args);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} printed a table");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        }
    }
}

#[test]
fn no_arguments_print_the_table() {
    for bin in BINS {
        let out = run(bin, &[]);
        assert_eq!(out.status.code(), Some(0), "{bin}");
        assert!(!out.stdout.is_empty(), "{bin} printed nothing");
    }
}
