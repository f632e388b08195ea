//! `pointacc-lint` — repo-invariant linter for the PointAcc workspace.
//!
//! A dependency-free static checker enforcing the conventions the
//! workspace relies on for robustness and reproducibility. It walks
//! every `crates/*/src/**/*.rs` source (integration `tests/`,
//! `benches/` and `examples/` trees are out of scope), masks comments
//! and string/char literals with a line scanner — no external parser —
//! tracks `#[cfg(test)]` regions by brace depth, and reports
//! `file:line` diagnostics, exiting nonzero on any violation.
//!
//! # Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `mutex-unwrap` | no `.unwrap()` / `.expect(` on `lock()` / `.wait(` results outside tests — use the poison-recovering helpers in `pointacc_bench::sync` (`PoisonError::into_inner`) |
//! | `env-var` | no `std::env::var` outside the designated read-once accessors in `crates/bench/src/lib.rs` |
//! | `wall-clock` | no `Instant::now` / `SystemTime::now` outside `Clock` impls and the criterion shim — timing must flow through injectable clocks |
//! | `unsafe` | no `unsafe` code anywhere (the workspace also denies it at the compiler level) |
//! | `panic` | no `panic!` / `todo!` / `unimplemented!` in non-test library code — surface typed errors instead |
//! | `thread-spawn` | no `thread::spawn` / `thread::scope` in non-test library code outside the `pointacc_geom::par` pool — the persistent pool is the single scheduler |
//! | `allow-attr` | no `#[allow(` without a `// lint:` justification on the same or preceding line |
//!
//! # Allowlisting
//!
//! A site that legitimately needs an exemption carries a justification
//! comment on the same or the immediately preceding line:
//!
//! ```text
//! // lint: allow(panic): documented panicking facade over try_run.
//! self.try_run(net, points).unwrap_or_else(|e| panic!("{e}"))
//! ```
//!
//! A few designated files are allowlisted wholesale for one rule each:
//! `crates/bench/src/lib.rs` for `env-var` (the read-once accessors),
//! `crates/shims/criterion/src/lib.rs` for `wall-clock` (the benchmark
//! shim is a timing source by definition), and `crates/geom/src/par.rs`
//! for `thread-spawn` (the worker pool is the one legitimate thread
//! source).

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    path: String,
    /// 1-based line number.
    line: usize,
    /// Rule identifier, usable in `// lint: allow(<rule>)`.
    rule: &'static str,
    /// What the rule enforces and how to comply.
    message: &'static str,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Masks comments and string/char literals in `src` with spaces,
/// preserving line structure, so rule matching never fires inside a
/// doc comment or a test fixture string. Handles line comments, nested
/// block comments, normal/byte strings with escapes, raw strings with
/// any `#` count, and char literals (distinguished from lifetimes by
/// lookahead).
fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let n = bytes.len();
    let blank = |out: &mut Vec<u8>, b: u8| out.push(if b == b'\n' { b'\n' } else { b' ' });
    while i < n {
        let b = bytes[i];
        // Line comment or block comment.
        if b == b'/' && i + 1 < n && bytes[i + 1] == b'/' {
            while i < n && bytes[i] != b'\n' {
                blank(&mut out, bytes[i]);
                i += 1;
            }
            continue;
        }
        if b == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
            let mut depth = 1;
            blank(&mut out, bytes[i]);
            blank(&mut out, bytes[i + 1]);
            i += 2;
            while i < n && depth > 0 {
                if bytes[i] == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                    depth += 1;
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                    depth -= 1;
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"..." / r#"..."# / br##"..."##.
        let raw_start = if b == b'r' {
            Some(i + 1)
        } else if b == b'b' && i + 1 < n && bytes[i + 1] == b'r' {
            Some(i + 2)
        } else {
            None
        };
        if let Some(mut j) = raw_start {
            // Only a raw string if `r` is not part of a wider identifier.
            let prev_ident =
                i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
            let mut hashes = 0;
            while j < n && bytes[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if !prev_ident && j < n && bytes[j] == b'"' {
                while i <= j {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
                // Scan to the closing quote followed by `hashes` hashes.
                'raw: while i < n {
                    if bytes[i] == b'"' {
                        let mut k = i + 1;
                        let mut seen = 0;
                        while k < n && bytes[k] == b'#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            while i < k {
                                blank(&mut out, bytes[i]);
                                i += 1;
                            }
                            break 'raw;
                        }
                    }
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
                continue;
            }
        }
        // Normal or byte string.
        if b == b'"' || (b == b'b' && i + 1 < n && bytes[i + 1] == b'"') {
            if b == b'b' {
                blank(&mut out, bytes[i]);
                i += 1;
            }
            blank(&mut out, bytes[i]);
            i += 1;
            while i < n {
                if bytes[i] == b'\\' && i + 1 < n {
                    blank(&mut out, bytes[i]);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                    continue;
                }
                let closed = bytes[i] == b'"';
                blank(&mut out, bytes[i]);
                i += 1;
                if closed {
                    break;
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' / '\n' / '\u{1F600}' are
        // literals; 'a in `&'a str` is a lifetime (no closing quote
        // within the short lookahead window).
        if b == b'\'' {
            let mut j = i + 1;
            if j < n && bytes[j] == b'\\' {
                j += 2;
                // Cover \u{...} and multi-char escapes.
                while j < n && bytes[j] != b'\'' && j - i < 12 && bytes[j] != b'\n' {
                    j += 1;
                }
            } else if j < n {
                j += 1;
            }
            if j < n && bytes[j] == b'\'' {
                while i <= j {
                    blank(&mut out, bytes[i]);
                    i += 1;
                }
                continue;
            }
        }
        out.push(b);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Per-line test-region flags: a line is "test code" when it lies in
/// the braces of an item annotated `#[cfg(test)]` (tracked by brace
/// depth on the masked source), or is part of the annotation itself.
fn test_lines(masked: &str) -> Vec<bool> {
    let lines: Vec<&str> = masked.lines().collect();
    let mut flags = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut entry_depths: Vec<i64> = Vec::new();
    let mut pending_attr = false;
    for (idx, line) in lines.iter().enumerate() {
        if line.contains("#[cfg(test)]") {
            pending_attr = true;
        }
        if pending_attr || !entry_depths.is_empty() {
            flags[idx] = true;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    if pending_attr {
                        entry_depths.push(depth);
                        pending_attr = false;
                        flags[idx] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if entry_depths.last().is_some_and(|&d| depth <= d) {
                        entry_depths.pop();
                    }
                }
                // `#[cfg(test)] use foo;` — the attribute's item ended
                // without a body, so nothing to exempt beyond it.
                ';' if pending_attr => pending_attr = false,
                _ => {}
            }
        }
    }
    flags
}

/// Whether `needle` occurs in `line` as a whole word (neither the
/// preceding nor the following character is part of an identifier —
/// so `unsafe` never matches `unsafe_code`).
fn word_hit(line: &str, needle: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !line[..at].chars().next_back().is_some_and(ident);
        let after_ok = !line[at + needle.len()..].chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Whether `raw_lines[idx]` carries a `// lint: allow(<rule>)`
/// justification on the same or the immediately preceding line.
fn allowed(raw_lines: &[&str], idx: usize, rule: &str) -> bool {
    let marker = format!("// lint: allow({rule})");
    raw_lines[idx].contains(&marker) || (idx > 0 && raw_lines[idx - 1].contains(&marker))
}

/// Files exempt from one rule wholesale (the rule's designated sites).
fn allowlisted(rule: &str, path: &str) -> bool {
    match rule {
        "env-var" => path.ends_with("crates/bench/src/lib.rs"),
        "wall-clock" => path.ends_with("crates/shims/criterion/src/lib.rs"),
        "thread-spawn" => path.ends_with("crates/geom/src/par.rs"),
        _ => false,
    }
}

/// Runs every rule over one source file, returning its diagnostics.
fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let masked = mask_source(src);
    let masked_lines: Vec<&str> = masked.lines().collect();
    let raw_lines: Vec<&str> = src.lines().collect();
    let in_test = test_lines(&masked);
    let mut diags = Vec::new();
    let mut push = |idx: usize, rule: &'static str, message: &'static str| {
        if !allowlisted(rule, path) && !allowed(&raw_lines, idx, rule) {
            diags.push(Diagnostic { path: path.to_string(), line: idx + 1, rule, message });
        }
    };
    for (idx, line) in masked_lines.iter().enumerate() {
        let test = in_test.get(idx).copied().unwrap_or(false);
        if !test {
            let on_lock = line.contains("lock()") || line.contains(".wait(");
            if on_lock && (line.contains(".unwrap()") || line.contains(".expect(")) {
                push(
                    idx,
                    "mutex-unwrap",
                    "unwrap/expect on a lock result: recover with PoisonError::into_inner \
                     (pointacc_bench::sync::{lock, wait})",
                );
            }
            if line.contains("env::var") {
                push(
                    idx,
                    "env-var",
                    "environment read outside the designated read-once accessors \
                     (crates/bench/src/lib.rs)",
                );
            }
            if line.contains("Instant::now") || line.contains("SystemTime::now") {
                push(
                    idx,
                    "wall-clock",
                    "direct wall-clock read: route timing through an injectable Clock impl",
                );
            }
            if line.contains("thread::spawn") || line.contains("thread::scope") {
                push(
                    idx,
                    "thread-spawn",
                    "thread creation outside the pointacc_geom::par pool: route parallelism \
                     through parallel_map/parallel_map_with so workers are reused",
                );
            }
            if word_hit(line, "panic!")
                || word_hit(line, "todo!")
                || word_hit(line, "unimplemented!")
            {
                push(
                    idx,
                    "panic",
                    "panicking macro in non-test library code: surface a typed error instead",
                );
            }
        }
        if word_hit(line, "unsafe") {
            push(idx, "unsafe", "unsafe code is banned workspace-wide");
        }
        if line.contains("#[allow(") {
            push(
                idx,
                "allow-attr",
                "lint suppression without justification: add a `// lint:` comment explaining why",
            );
        }
    }
    diags
}

/// Recursively collects the in-scope sources: every `.rs` file under a
/// `crates/*/src` tree (skipping `target/`, and any `tests/`,
/// `benches/` or `examples/` components).
fn rs_files(workspace_root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![workspace_root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name();
                if name != "target" {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let scoped = path.components().any(|c| c.as_os_str() == "src")
                    && !path.components().any(|c| {
                        let c = c.as_os_str();
                        c == "tests" || c == "benches" || c == "examples"
                    });
                if scoped {
                    out.push(path);
                }
            }
        }
    }
    out.sort();
    out
}

fn main() -> ExitCode {
    // The linter lives at <workspace>/crates/lint, so the workspace
    // root is two levels up from its own manifest — no environment
    // variable read at runtime.
    let manifest: &Path = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.ancestors().nth(2).unwrap_or(manifest);
    let files = rs_files(root);
    if files.is_empty() {
        eprintln!("pointacc-lint: no sources found under {}", root.display());
        return ExitCode::FAILURE;
    }
    let mut total = 0usize;
    for file in &files {
        let Ok(src) = std::fs::read_to_string(file) else {
            eprintln!("pointacc-lint: unreadable source {}", file.display());
            total += 1;
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(file).to_string_lossy().replace('\\', "/");
        for diag in check_source(&rel, &src) {
            eprintln!("{diag}");
            total += 1;
        }
    }
    if total > 0 {
        eprintln!("pointacc-lint: {total} violation(s) in {} file(s) scanned", files.len());
        ExitCode::FAILURE
    } else {
        println!("pointacc-lint: clean ({} files scanned)", files.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<(&'static str, usize)> {
        check_source(path, src).into_iter().map(|d| (d.rule, d.line)).collect()
    }

    const LIB: &str = "crates/x/src/lib.rs";

    #[test]
    fn mutex_unwrap_flags_unwrap_and_expect_on_lock_results() {
        let src = "fn f(m: &Mutex<u32>) {\n    let a = m.lock().unwrap();\n    let b = m.lock().expect(\"poisoned\");\n    let c = cv.wait(g).expect(\"poisoned\");\n}\n";
        assert_eq!(
            rules(LIB, src),
            vec![("mutex-unwrap", 2), ("mutex-unwrap", 3), ("mutex-unwrap", 4)]
        );
    }

    #[test]
    fn poison_recovering_lock_is_clean() {
        let src = "fn f(m: &Mutex<u32>) {\n    let g = m.lock().unwrap_or_else(PoisonError::into_inner);\n    let g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);\n}\n";
        assert_eq!(rules(LIB, src), vec![]);
        // Unwraps on non-lock results are someone else's business.
        assert_eq!(rules(LIB, "fn f() { let x = rx.recv().unwrap(); }\n"), vec![]);
    }

    #[test]
    fn env_var_flags_reads_outside_the_designated_accessor() {
        let src = "fn f() {\n    let s = std::env::var(\"POINTACC_SCALE\");\n    let t = std::env::var_os(\"DIR\");\n}\n";
        assert_eq!(rules(LIB, src), vec![("env-var", 2), ("env-var", 3)]);
        // The designated accessor file is allowlisted wholesale.
        assert_eq!(rules("crates/bench/src/lib.rs", src), vec![]);
        // `env!` (compile time) and `env::args` are not banned.
        assert_eq!(rules(LIB, "fn f() { let a: Vec<_> = std::env::args().collect(); }\n"), vec![]);
    }

    #[test]
    fn wall_clock_flags_instant_and_system_time() {
        let src = "fn f() {\n    let t = Instant::now();\n    let s = SystemTime::now();\n}\n";
        assert_eq!(rules(LIB, src), vec![("wall-clock", 2), ("wall-clock", 3)]);
        assert_eq!(rules("crates/shims/criterion/src/lib.rs", src), vec![]);
    }

    #[test]
    fn thread_spawn_flags_library_code_but_not_the_pool_or_tests() {
        let src = "fn f() {\n    let h = std::thread::spawn(|| 1);\n    std::thread::scope(|s| { s.spawn(|| 2); });\n}\n";
        assert_eq!(rules(LIB, src), vec![("thread-spawn", 2), ("thread-spawn", 3)]);
        // The worker pool is the one designated site; shims get no pass.
        assert_eq!(rules("crates/geom/src/par.rs", src), vec![]);
        assert_eq!(
            rules("crates/shims/criterion/src/lib.rs", src),
            vec![("thread-spawn", 2), ("thread-spawn", 3)]
        );
        // Test-only helpers may spawn raw threads.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| 1).join().unwrap(); }\n}\n";
        assert_eq!(rules(LIB, test_src), vec![]);
        // A justified site passes with an explanatory comment.
        let justified = "// lint: allow(thread-spawn): blocking queue workers, not map-shaped.\nfn f() { std::thread::scope(|s| { let _ = s; }); }\n";
        assert_eq!(rules(LIB, justified), vec![]);
    }

    #[test]
    fn unsafe_is_flagged_even_in_tests_but_not_inside_identifiers() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { () } }\n}\n";
        assert_eq!(rules(LIB, src), vec![("unsafe", 3)]);
        // `unsafe_code` (the lint name in attributes) is a different token.
        assert_eq!(rules(LIB, "#![forbid(unsafe_code)]\n"), vec![]);
    }

    #[test]
    fn panic_macros_flag_in_library_code_only() {
        let src = "fn f() { panic!(\"boom\"); }\nfn g() { todo!() }\nfn h() { unimplemented!() }\n";
        assert_eq!(rules(LIB, src), vec![("panic", 1), ("panic", 2), ("panic", 3)]);
        let test_src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { panic!(\"expected\"); }\n}\n";
        assert_eq!(rules(LIB, test_src), vec![]);
        // assert!/unreachable! stay legal.
        assert_eq!(rules(LIB, "fn f() { assert!(true); unreachable!_placeholder(); }\n"), vec![]);
    }

    #[test]
    fn cfg_test_region_tracking_survives_nested_braces_and_attr_items() {
        let src = "fn live() { panic!(\"flagged\"); }\n#[cfg(test)]\nmod tests {\n    fn deep() { if true { panic!(\"exempt\"); } }\n}\nfn live_again() { panic!(\"flagged\"); }\n#[cfg(test)]\nuse std::fmt;\nfn after_use() { panic!(\"flagged\"); }\n";
        assert_eq!(rules(LIB, src), vec![("panic", 1), ("panic", 6), ("panic", 9)]);
    }

    #[test]
    fn allow_attr_requires_a_lint_justification() {
        let bare = "#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(rules(LIB, bare), vec![("allow-attr", 1)]);
        let justified = "// lint: allow(allow-attr): speculative API kept for the next PR.\n#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(rules(LIB, justified), vec![]);
    }

    #[test]
    fn lint_allow_comments_exempt_same_and_preceding_line() {
        let same = "fn f() { panic!(\"x\") } // lint: allow(panic): facade.\n";
        assert_eq!(rules(LIB, same), vec![]);
        let preceding = "// lint: allow(panic): documented facade.\nfn f() { panic!(\"x\") }\n";
        assert_eq!(rules(LIB, preceding), vec![]);
        // An allow for one rule does not silence another.
        let wrong_rule = "// lint: allow(env-var): wrong rule.\nfn f() { panic!(\"x\") }\n";
        assert_eq!(rules(LIB, wrong_rule), vec![("panic", 2)]);
    }

    #[test]
    fn comments_strings_and_char_literals_never_trigger_rules() {
        let src = "// panic! in a comment is fine\n/* block with env::var and\n   unsafe across lines */\nfn f() -> &'static str {\n    let s = \"panic!(env::var unsafe Instant::now)\";\n    let r = r#\"lock().unwrap() \"quoted\" panic!\"#;\n    let c = '{';\n    let esc = '\\n';\n    s\n}\n";
        assert_eq!(rules(LIB, src), vec![]);
    }

    #[test]
    fn brace_depth_in_strings_does_not_corrupt_test_regions() {
        // The `{` char literal and the brace-bearing string would break
        // naive depth tracking; masking removes them first.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let b = '{'; let s = \"}}}\"; panic!(\"exempt\"); }\n}\nfn live() { panic!(\"flagged\"); }\n";
        assert_eq!(rules(LIB, src), vec![("panic", 5)]);
    }

    #[test]
    fn diagnostics_render_file_line_and_rule() {
        let d = &check_source(LIB, "fn f() { panic!(\"x\") }\n")[0];
        let shown = d.to_string();
        assert!(shown.contains("crates/x/src/lib.rs:1:"), "{shown}");
        assert!(shown.contains("[panic]"), "{shown}");
    }

    #[test]
    fn raw_strings_with_hashes_mask_to_the_matching_terminator() {
        let src = "fn f() {\n    let a = r##\"unsafe \"# still inside\"##;\n    let b = panic!(\"after the raw string we still lint\");\n}\n";
        assert_eq!(rules(LIB, src), vec![("panic", 3)]);
    }
}
