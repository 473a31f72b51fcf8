//! Concurrency-hygiene lint pass (`cargo run -p xtask -- lint`).
//!
//! The pass parses each file once into a [`FileModel`] — a character-level
//! scan that separates *code* from comment text and string/char-literal
//! contents (line comments, nested block comments, plain/byte/raw strings,
//! and a char-vs-lifetime heuristic). All structural rules then run on the
//! stripped code view, so tokens inside strings or comments can never
//! trigger (or suppress) a finding, and annotations are matched against the
//! comment view only. Statement spans are recovered by bracket-depth
//! tracking, and `#[cfg(test)] mod` scopes are tracked by brace depth so
//! exemptions end where the module ends.
//!
//! Seven rules, tuned to the invariants the containers and shims rely on:
//!
//! 1. **SAFETY** — every `unsafe { .. }` block and `unsafe impl` must carry a
//!    `// SAFETY:` comment in the contiguous comment run directly above it
//!    (or on the same line), and every `pub unsafe fn` must document its
//!    contract with a `# Safety` doc section. The inverse direction is also
//!    checked: a `// SAFETY:` comment whose annotated statement contains no
//!    `unsafe` at all is reported as stale (the unsafe code was removed or
//!    moved, the justification stayed behind).
//! 2. **ORDERING** — in `crates/containers`, `crates/mem`, `crates/rpc`,
//!    `crates/telemetry`, `crates/bench` and `shims/crossbeam` (the epoch
//!    reclamation the containers stand on), every *mutating* atomic access
//!    (`store`, `swap`, `fetch_*`, `compare_exchange*`) that uses
//!    `Ordering::Relaxed` must carry an `// ORDERING:` comment above the
//!    statement explaining why relaxed is enough. Plain loads are exempt;
//!    `#[cfg(test)]` modules are exempt. Additionally, every `// ORDERING:`
//!    annotation is cross-checked against the statement it documents: when
//!    the comment names one or more orderings (`Relaxed`, `Acquire`,
//!    `Release`, `AcqRel`, `SeqCst`) and the statement's actual `Ordering::`
//!    arguments share none of them, the comment is reported as stale — it
//!    claims a protocol the code no longer implements. Comments that name
//!    at least one ordering the statement really uses pass (a success/
//!    failure CAS pair legitimately mentions both sides).
//! 3. **EPOCH** — a raw `Shared::deref()` call in epoch-using code must sit
//!    in a function that visibly holds a guard (`epoch::pin()`, a `Guard`
//!    parameter/binding, or `epoch::unprotected()`), so the pointee cannot
//!    be reclaimed out from under the reference. The shim defining the API
//!    (`shims/crossbeam`) is exempt.
//! 4. **DISPATCH** — container modules (`crates/core/src/`) must route every
//!    RPC issue through the procedural-access engine: direct
//!    `RpcClient`/`invoke*`/coalescer calls are only allowed in
//!    `crates/core/src/dispatch.rs`. This keeps locality, degradation, retry
//!    and cost accounting on the one shared path.
//! 5. **METRIC** — every metric name registered through a telemetry registry
//!    handle (`.counter("..")`, `.gauge("..")`, `.histogram("..")`) must
//!    follow the `hcl_<crate>_<name>` convention: `hcl_` prefix, a non-empty
//!    crate segment, a non-empty metric segment, characters `[a-z0-9_]`.
//!    Format-string placeholders (`{}`) count as a valid segment filler.
//!    Test modules and integration-test trees are exempt (negative-control
//!    tests register malformed names on purpose). This rule alone reads the
//!    string-preserving view — the metric *name* lives inside the literal.
//! 6. **MEMBERSHIP** — in `crates/core/src/` and `crates/runtime/src/`,
//!    ownership may only be resolved through the epoch-versioned partition
//!    map (`PartitionMap::owner_of_hash` / `owner_of_vpart`). Hand-rolled
//!    modulo owner math — `% world_size()`, `% servers.len()`,
//!    `% members.len()`, `% nparts`, `% n_ranks`, with any receiver path —
//!    silently disagrees with the live map the moment a rank joins, leaves,
//!    or drains (the exact bug class of the old per-container `owner_of`
//!    copies). The map implementation itself (`membership.rs`) is the single
//!    exemption, by name; `#[cfg(test)]` modules are exempt as usual.
//! 7. **SHARD** — in `crates/core/src/` the server-side pipeline lives in
//!    `shard.rs` and nowhere else: no other file may log a mutation
//!    (`.record_op(` / `.record_local(`), take the strict read fence
//!    (`.read_fence(`),
//!    compact an op log (`.compact(`), forward to replicas or a migration
//!    target (`.forward(` / `.forward_to(`), or define `fn mig_*` /
//!    `fn forward_migration`. A container that hand-threads any of these is
//!    a second copy of the pipeline waiting to drift. The files that
//!    *define* the primitives are exempt for their own group only:
//!    `persist.rs` (the log) and `dispatch.rs` (the forwarder).

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories scanned relative to the workspace root. `xtask` itself is
/// excluded: its rule-token string constants (e.g. the METRIC registry
/// tokens) would self-match the string-preserving METRIC scan.
const SCAN_ROOTS: &[&str] = &["crates", "shims", "src", "tests", "examples", "benches"];

/// Path fragments where the ORDERING rule applies.
const ORDERING_PATHS: &[&str] = &[
    "crates/containers/",
    "crates/mem/",
    "crates/rpc/",
    "crates/telemetry/",
    "crates/bench/",
    "shims/crossbeam/",
];

/// Path fragments exempt from the EPOCH rule (the shim defines the API).
const EPOCH_EXEMPT_PATHS: &[&str] = &["shims/crossbeam/"];

/// Atomic-mutation tokens for the ORDERING rule.
const MUTATION_TOKENS: &[&str] = &[
    "store(",
    "swap(",
    "compare_exchange",
    "fetch_add(",
    "fetch_sub(",
    "fetch_and(",
    "fetch_or(",
    "fetch_xor(",
    "fetch_max(",
    "fetch_min(",
    "fetch_update(",
];

/// The five memory-ordering names, used by the ORDERING cross-check. Index
/// doubles as the bit position in the claimed/actual sets.
const ORDERING_NAMES: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The DISPATCH rule's scope: container modules of the core crate.
const DISPATCH_PATH: &str = "crates/core/src/";

/// Tokens that indicate a direct RPC issue path. Deliberately precise
/// (`rank.invoke(`, not `.invoke(`): history recorders expose an `invoke`
/// method too, and those calls are fine anywhere.
const DISPATCH_TOKENS: &[&str] = &[
    "rank.invoke(",
    ".invoke_tagged(",
    ".invoke_async(",
    ".invoke_coalesced(",
    ".invoke_batch",
    ".invoke_raw(",
    ".invoke_chain(",
    "RpcClient",
    ".coalescer(",
    ".client()",
];

/// Registry-handle calls whose first argument is a metric name. The METRIC
/// rule validates the string literal that follows each of these.
const METRIC_TOKENS: &[&str] = &[".counter(", ".gauge(", ".histogram("];

/// Path fragments where the MEMBERSHIP rule applies: the ownership stack.
const MEMBERSHIP_PATHS: &[&str] = &["crates/core/src/", "crates/runtime/src/"];

/// SHARD-rule tokens, grouped by the file (besides `shard.rs`) that defines
/// the primitive and may therefore mention it.
const SHARD_TOKENS: &[(&str, &[&str])] = &[
    ("persist.rs", &[".record_op(", ".record_local(", ".read_fence(", ".compact("]),
    ("dispatch.rs", &[".forward(", ".forward_to("]),
    ("", &["fn mig_", "fn forward_migration"]),
];

/// Modulo denominators that constitute hand-rolled owner math. Matched as the
/// trailing segment of the identifier path following a `%` operator, so
/// `hash % self.core.servers.len()` and `k % world_size()` both trigger while
/// `h % self.shards.len()` (local cache sharding) does not.
const OWNER_MATH_DENOMS: &[&str] = &[
    "world_size()",
    "servers.len()",
    "members.len()",
    "nparts",
    "n_ranks",
    "num_servers",
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    Safety,
    Ordering,
    Epoch,
    Dispatch,
    Metric,
    Membership,
    Shard,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Safety => write!(f, "SAFETY"),
            Rule::Ordering => write!(f, "ORDERING"),
            Rule::Epoch => write!(f, "EPOCH"),
            Rule::Dispatch => write!(f, "DISPATCH"),
            Rule::Metric => write!(f, "METRIC"),
            Rule::Membership => write!(f, "MEMBERSHIP"),
            Rule::Shard => write!(f, "SHARD"),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Entry point for `xtask lint`.
pub fn run() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let Ok(content) = std::fs::read_to_string(path) else {
            continue;
        };
        scanned += 1;
        let rel = path.strip_prefix(&root).unwrap_or(path).display().to_string();
        findings.extend(check_file(&rel, &content));
    }
    for f in &findings {
        eprintln!("{f}");
    }
    if findings.is_empty() {
        println!("xtask lint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} finding(s) in {scanned} files", findings.len());
        ExitCode::FAILURE
    }
}

/// The workspace root is the parent of this crate's manifest dir.
pub(crate) fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

// ---------------------------------------------------------------------------
// FileModel — the token/statement view every rule runs on
// ---------------------------------------------------------------------------

/// Scanner state for [`FileModel::parse`].
#[derive(Clone, Copy, PartialEq)]
enum St {
    Code,
    LineComment,
    /// Nesting depth of `/* .. */`.
    BlockComment(u32),
    Str,
    /// Number of `#`s that close the raw string.
    RawStr(u32),
    CharLit,
}

/// One file, split into per-line views by a single character-level pass.
struct FileModel {
    /// Code with comments removed and string/char contents blanked
    /// (delimiters kept). Structural rules match tokens here.
    code: Vec<String>,
    /// Code with comments removed but string contents preserved. Only the
    /// METRIC rule reads this (the name lives inside the literal).
    text: Vec<String>,
    /// Comment text (line + block, markers stripped). Annotation lookups
    /// match here, so `SAFETY:` in a string cannot satisfy the rule.
    comments: Vec<String>,
    /// True for lines inside a `#[cfg(test)] mod` scope (brace-tracked).
    test_scope: Vec<bool>,
}

/// True when a raw (or raw byte) string literal starts at `i`; returns the
/// prefix length up to and including the opening quote, and the `#` count.
fn raw_prefix(chars: &[char], i: usize) -> Option<(usize, u32)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        j += 1;
        hashes += 1;
    }
    (chars.get(j) == Some(&'"')).then_some((j - i + 1, hashes))
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl FileModel {
    fn parse(content: &str) -> Self {
        let chars: Vec<char> = content.chars().collect();
        let mut code = vec![String::new()];
        let mut text = vec![String::new()];
        let mut comments = vec![String::new()];
        let mut st = St::Code;
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c == '\n' {
                if st == St::LineComment {
                    st = St::Code;
                }
                code.push(String::new());
                text.push(String::new());
                comments.push(String::new());
                i += 1;
                continue;
            }
            let next = chars.get(i + 1).copied();
            match st {
                St::Code => {
                    if c == '/' && next == Some('/') {
                        st = St::LineComment;
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        st = St::BlockComment(1);
                        i += 2;
                    } else if let Some((plen, hashes)) = (c == 'r' || c == 'b')
                        .then(|| raw_prefix(&chars, i))
                        .flatten()
                        .filter(|_| !(i > 0 && is_ident_char(chars[i - 1])))
                    {
                        for k in 0..plen {
                            code.last_mut().unwrap().push(chars[i + k]);
                            text.last_mut().unwrap().push(chars[i + k]);
                        }
                        st = St::RawStr(hashes);
                        i += plen;
                    } else if c == '"' || (c == 'b' && next == Some('"')) {
                        if c == 'b' {
                            code.last_mut().unwrap().push('b');
                            text.last_mut().unwrap().push('b');
                            i += 1;
                        }
                        code.last_mut().unwrap().push('"');
                        text.last_mut().unwrap().push('"');
                        st = St::Str;
                        i += 1;
                    } else if c == '\'' {
                        // Char literal iff `'\..'` or `'x'`; otherwise a
                        // lifetime tick, which stays plain code.
                        let char_lit =
                            next == Some('\\') || chars.get(i + 2) == Some(&'\'');
                        code.last_mut().unwrap().push('\'');
                        text.last_mut().unwrap().push('\'');
                        if char_lit {
                            st = St::CharLit;
                        }
                        i += 1;
                    } else {
                        code.last_mut().unwrap().push(c);
                        text.last_mut().unwrap().push(c);
                        i += 1;
                    }
                }
                St::LineComment => {
                    comments.last_mut().unwrap().push(c);
                    i += 1;
                }
                St::BlockComment(n) => {
                    if c == '/' && next == Some('*') {
                        st = St::BlockComment(n + 1);
                        i += 2;
                    } else if c == '*' && next == Some('/') {
                        st = if n == 1 { St::Code } else { St::BlockComment(n - 1) };
                        i += 2;
                    } else {
                        comments.last_mut().unwrap().push(c);
                        i += 1;
                    }
                }
                St::Str => {
                    if c == '\\' {
                        text.last_mut().unwrap().push(c);
                        if let Some(n) = next {
                            text.last_mut().unwrap().push(n);
                        }
                        i += 2;
                    } else if c == '"' {
                        code.last_mut().unwrap().push('"');
                        text.last_mut().unwrap().push('"');
                        st = St::Code;
                        i += 1;
                    } else {
                        text.last_mut().unwrap().push(c);
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    let closes = c == '"'
                        && (0..hashes as usize).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                    if closes {
                        code.last_mut().unwrap().push('"');
                        text.last_mut().unwrap().push('"');
                        for _ in 0..hashes {
                            code.last_mut().unwrap().push('#');
                            text.last_mut().unwrap().push('#');
                        }
                        st = St::Code;
                        i += 1 + hashes as usize;
                    } else {
                        text.last_mut().unwrap().push(c);
                        i += 1;
                    }
                }
                St::CharLit => {
                    if c == '\\' {
                        i += 2;
                    } else if c == '\'' {
                        code.last_mut().unwrap().push('\'');
                        text.last_mut().unwrap().push('\'');
                        st = St::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        let test_scope = compute_test_scopes(&code);
        FileModel { code, text, comments, test_scope }
    }

    fn len(&self) -> usize {
        self.code.len()
    }

    /// Comment-only line (the code view is blank, the comment view is not).
    fn is_comment_line(&self, i: usize) -> bool {
        self.code[i].trim().is_empty() && !self.comments[i].trim().is_empty()
    }

    /// Attribute line (`#[..]` / `#![..]`).
    fn is_attr_line(&self, i: usize) -> bool {
        let t = self.code[i].trim_start();
        t.starts_with("#[") || t.starts_with("#!")
    }

    fn is_blank(&self, i: usize) -> bool {
        self.code[i].trim().is_empty() && self.comments[i].trim().is_empty()
    }
}

/// Mark every line inside a `#[cfg(test)] mod ..` scope, tracked by brace
/// depth — the exemption ends where the module's `}` closes, unlike the old
/// to-end-of-file heuristic.
fn compute_test_scopes(code: &[String]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    let mut depth = 0i32;
    let mut test_depth: Option<i32> = None;
    let mut pending_cfg_test = false;
    for (i, line) in code.iter().enumerate() {
        if test_depth.is_some() {
            flags[i] = true;
        }
        let t = line.trim();
        if t.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && t.starts_with("mod ") {
            if test_depth.is_none() {
                test_depth = Some(depth);
                flags[i] = true;
            }
            pending_cfg_test = false;
        } else if !t.is_empty() && !t.starts_with("#[") && !t.starts_with("#!") {
            pending_cfg_test = false;
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if test_depth.is_some_and(|d| depth <= d) {
                        test_depth = None;
                    }
                }
                _ => {}
            }
        }
    }
    flags
}

/// Walk the contiguous comment/attribute run directly above `idx` (plus the
/// line's own trailing comment) looking for `needle` in comment text.
fn annotated_above(model: &FileModel, idx: usize, needle: &str) -> bool {
    if model.comments[idx].contains(needle) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        if !(model.is_comment_line(i) || model.is_attr_line(i)) {
            break;
        }
        if model.comments[i].contains(needle) {
            return true;
        }
    }
    false
}

/// First line of the statement containing line `idx`: stop below a blank
/// line, a comment/attribute line, or a line ending the previous statement.
fn statement_start(model: &FileModel, idx: usize) -> usize {
    let mut start = idx;
    while start > 0 {
        let p = start - 1;
        if model.is_blank(p) || model.is_comment_line(p) || model.is_attr_line(p) {
            break;
        }
        let prev = model.code[p].trim_end();
        if prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}') {
            break;
        }
        start -= 1;
    }
    start
}

/// Last line of the statement starting at `start`: the first line at zero
/// bracket depth ending in `;`, `{` or `}`. Capped at 40 lines.
fn statement_end(model: &FileModel, start: usize) -> usize {
    let mut depth = 0i32;
    let cap = model.len().min(start + 40);
    for i in start..cap {
        for c in model.code[i].chars() {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                _ => {}
            }
        }
        let t = model.code[i].trim_end();
        if depth <= 0 && (t.ends_with(';') || t.ends_with('{') || t.ends_with('}')) {
            return i;
        }
    }
    start
}

/// Bit set of [`ORDERING_NAMES`] mentioned as whole words in `text`.
fn named_orderings(text: &str) -> u8 {
    let bytes = text.as_bytes();
    let mut set = 0u8;
    for (bit, name) in ORDERING_NAMES.iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = text[from..].find(name) {
            let at = from + pos;
            let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
            let end = at + name.len();
            let after_ok = end >= bytes.len() || !is_ident_char(bytes[end] as char);
            if before_ok && after_ok {
                set |= 1 << bit;
                break;
            }
            from = end;
        }
    }
    set
}

/// Bit set of orderings used as explicit `Ordering::X` arguments in `code`.
fn used_orderings(code: &str) -> u8 {
    let mut set = 0u8;
    for (bit, name) in ORDERING_NAMES.iter().enumerate() {
        if code.contains(&format!("Ordering::{name}")) {
            set |= 1 << bit;
        }
    }
    set
}

fn ordering_set_names(set: u8) -> String {
    let names: Vec<&str> = ORDERING_NAMES
        .iter()
        .enumerate()
        .filter(|(bit, _)| set & (1 << bit) != 0)
        .map(|(_, n)| *n)
        .collect();
    names.join(", ")
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Run all rules over one file. `rel` is the workspace-relative path
/// (forward slashes), used for the per-rule path filters.
pub fn check_file(rel: &str, content: &str) -> Vec<Finding> {
    let model = FileModel::parse(content);
    let mut findings = Vec::new();
    check_safety(rel, &model, &mut findings);
    let in_test_tree = rel.starts_with("tests/") || rel.contains("/tests/");
    // Stale-annotation checks run tree-wide (a wrong comment is wrong in any
    // crate) but skip test trees, whose fixtures misannotate on purpose.
    if !in_test_tree {
        check_stale_annotations(rel, &model, &mut findings);
    }
    // Integration-test trees (`<crate>/tests/`) are exempt from ORDERING the
    // same way `#[cfg(test)]` modules are: test counters need no rationale.
    if ORDERING_PATHS.iter().any(|p| rel.contains(p)) && !in_test_tree {
        check_ordering(rel, &model, &mut findings);
    }
    if content.contains("epoch") && !EPOCH_EXEMPT_PATHS.iter().any(|p| rel.contains(p)) {
        check_epoch(rel, &model, &mut findings);
    }
    if rel.contains(DISPATCH_PATH) && !rel.ends_with("dispatch.rs") {
        check_dispatch(rel, &model, &mut findings);
    }
    if rel.contains(DISPATCH_PATH) && !rel.ends_with("shard.rs") {
        check_shard(rel, &model, &mut findings);
    }
    // Integration-test trees register malformed names as negative controls.
    if !in_test_tree {
        check_metric(rel, &model, &mut findings);
    }
    // The partition map implements the one legal modulo; tests (which pin
    // map-vs-modulo agreement as an invariant) are exempt like ORDERING.
    if MEMBERSHIP_PATHS.iter().any(|p| rel.contains(p))
        && !rel.ends_with("membership.rs")
        && !in_test_tree
    {
        check_membership(rel, &model, &mut findings);
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Rule 1 (forward): `unsafe` blocks/impls need `// SAFETY:`, `pub unsafe
/// fn` needs a `# Safety` doc section.
fn check_safety(rel: &str, model: &FileModel, findings: &mut Vec<Finding>) {
    for idx in 0..model.len() {
        let line = &model.code[idx];
        if line.contains("unsafe impl") {
            if !annotated_above(model, idx, "SAFETY:") {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: Rule::Safety,
                    message: "`unsafe impl` without a `// SAFETY:` comment".into(),
                });
            }
        } else if line.contains("unsafe fn") {
            if line.contains("pub unsafe fn") && !annotated_above(model, idx, "# Safety") {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: Rule::Safety,
                    message: "`pub unsafe fn` without a `# Safety` doc section".into(),
                });
            }
        } else if line.contains("unsafe {") || line.trim_end().ends_with("unsafe") {
            // `unsafe {` inline, or an `unsafe` keyword ending the line with
            // the block opening on the next (rustfmt wraps long statements).
            if !annotated_above(model, idx, "SAFETY:") {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: Rule::Safety,
                    message: "`unsafe` block without a `// SAFETY:` comment".into(),
                });
            }
        }
    }
}

/// Rules 1+2 (reverse): a `// SAFETY:` run above a statement with no
/// `unsafe`, or an `// ORDERING:` run whose claimed orderings share nothing
/// with the statement's actual `Ordering::` arguments, is stale.
fn check_stale_annotations(rel: &str, model: &FileModel, findings: &mut Vec<Finding>) {
    let n = model.len();
    let mut idx = 0;
    while idx < n {
        if !model.is_comment_line(idx) || model.test_scope[idx] {
            idx += 1;
            continue;
        }
        let run_start = idx;
        let mut run_end = idx;
        while run_end + 1 < n
            && (model.is_comment_line(run_end + 1) || model.is_attr_line(run_end + 1))
        {
            run_end += 1;
        }
        idx = run_end + 1;
        // The annotated statement must start directly below the run; a
        // blank line or EOF means the run is free-floating prose.
        let stmt = run_end + 1;
        if stmt >= n || model.is_blank(stmt) {
            continue;
        }
        let run_text = model.comments[run_start..=run_end].join("\n");
        let end = statement_end(model, stmt);
        let stmt_code = model.code[stmt..=end].join("\n");
        if run_text.contains("SAFETY:") && !stmt_code.contains("unsafe") {
            findings.push(Finding {
                file: rel.to_string(),
                line: run_start + 1,
                rule: Rule::Safety,
                message: "stale `// SAFETY:` comment — the annotated statement contains \
                          no `unsafe`"
                    .into(),
            });
        }
        if run_text.contains("ORDERING:") {
            let claimed = named_orderings(&run_text);
            let actual = used_orderings(&stmt_code);
            if claimed != 0 && actual != 0 && claimed & actual == 0 {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: run_start + 1,
                    rule: Rule::Ordering,
                    message: format!(
                        "stale `// ORDERING:` comment — claims {} but the statement \
                         uses {}",
                        ordering_set_names(claimed),
                        ordering_set_names(actual)
                    ),
                });
            }
        }
    }
}

/// Rule 2 (forward): relaxed atomic mutations need `// ORDERING:` above the
/// statement.
fn check_ordering(rel: &str, model: &FileModel, findings: &mut Vec<Finding>) {
    let mut seen: HashSet<usize> = HashSet::new();
    for idx in 0..model.len() {
        if model.test_scope[idx] || !model.code[idx].contains("Ordering::Relaxed") {
            continue;
        }
        let start = statement_start(model, idx);
        if !seen.insert(start) {
            continue;
        }
        let end = statement_end(model, start).max(idx);
        let stmt = model.code[start..=end].join("\n");
        if !MUTATION_TOKENS.iter().any(|t| stmt.contains(t)) {
            continue; // plain load (or constructor): exempt
        }
        if !annotated_above(model, start, "ORDERING:") {
            findings.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: Rule::Ordering,
                message: "relaxed atomic mutation without an `// ORDERING:` comment".into(),
            });
        }
    }
}

/// Rule 3: `.deref()` in epoch-using code must be inside a function that
/// visibly holds a guard.
fn check_epoch(rel: &str, model: &FileModel, findings: &mut Vec<Finding>) {
    for idx in 0..model.len() {
        if !model.code[idx].contains(".deref()") {
            continue;
        }
        // Find the enclosing fn signature.
        let fn_line = (0..=idx).rev().find(|&i| {
            let t = model.code[i].trim_start();
            t.starts_with("fn ")
                || t.starts_with("pub fn ")
                || t.starts_with("pub(crate) fn ")
                || t.starts_with("unsafe fn ")
                || t.starts_with("pub unsafe fn ")
                || t.starts_with("pub const fn ")
                || t.starts_with("const fn ")
        });
        let Some(fn_line) = fn_line else { continue };
        let region = model.code[fn_line..=idx].join("\n");
        let has_guard = region.contains("Guard")
            || region.contains("guard")
            || region.contains("pin()")
            || region.contains("unprotected");
        if !has_guard {
            findings.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: Rule::Epoch,
                message: "raw `Shared::deref()` with no guard in scope".into(),
            });
        }
    }
}

/// Rule 4: container modules may not issue RPCs directly — every remote op
/// must go through `dispatch::Dispatcher` (the engine file is the single
/// exemption, by name).
fn check_dispatch(rel: &str, model: &FileModel, findings: &mut Vec<Finding>) {
    for idx in 0..model.len() {
        let line = &model.code[idx];
        if let Some(tok) = DISPATCH_TOKENS.iter().find(|t| line.contains(**t)) {
            findings.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: Rule::Dispatch,
                message: format!(
                    "direct RPC issue (`{tok}`) in a container module; \
                     route the op through `dispatch::Dispatcher`"
                ),
            });
        }
    }
}

/// Rule 7: the server-side pipeline may not be hand-threaded outside
/// `shard.rs`. Test modules are exempt (they drive the primitives directly).
fn check_shard(rel: &str, model: &FileModel, findings: &mut Vec<Finding>) {
    for idx in 0..model.len() {
        if model.test_scope[idx] {
            continue;
        }
        let line = &model.code[idx];
        let hit = SHARD_TOKENS
            .iter()
            .filter(|(definer, _)| definer.is_empty() || !rel.ends_with(definer))
            .flat_map(|(_, toks)| toks.iter())
            .find(|t| line.contains(**t));
        if let Some(tok) = hit {
            findings.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: Rule::Shard,
                message: format!(
                    "shard-pipeline step (`{tok}`) outside `shard.rs`; go through \
                     `KeyedShard`/`SeqShard` instead"
                ),
            });
        }
    }
}

/// Mirror of `hcl_telemetry::valid_metric_name`: `hcl_` prefix, non-empty
/// crate segment, non-empty metric segment, characters `[a-z0-9_]`. Kept in
/// sync by the registry's own runtime assertion — a name that slips past one
/// check trips the other.
fn valid_metric_name(name: &str) -> bool {
    if name.is_empty()
        || !name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    {
        return false;
    }
    match name.strip_prefix("hcl_").and_then(|rest| rest.split_once('_')) {
        Some((krate, metric)) => !krate.is_empty() && !metric.is_empty(),
        None => false,
    }
}

/// Replace `format!` placeholders (`{..}`) with a legal filler character so
/// the static shape of a dynamic name is still checkable:
/// `"hcl_core_op_{}_ns"` validates as `hcl_core_op_x_ns`.
fn fill_placeholders(lit: &str) -> String {
    let mut out = String::with_capacity(lit.len());
    let mut depth = 0usize;
    for c in lit.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('x');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Rule 5: metric names registered through `.counter(` / `.gauge(` /
/// `.histogram(` calls must follow `hcl_<crate>_<name>`. Test modules are
/// exempt the same way ORDERING exempts them. Reads the string-preserving
/// view: the name is the literal's contents.
fn check_metric(rel: &str, model: &FileModel, findings: &mut Vec<Finding>) {
    for idx in 0..model.len() {
        if model.test_scope[idx] {
            continue;
        }
        let line = &model.text[idx];
        for tok in METRIC_TOKENS {
            let Some(pos) = line.find(tok) else { continue };
            // The name must be (or start with) a string literal on the same
            // line; handles taken via variables are the registry's runtime
            // assertion's problem.
            let rest = &line[pos + tok.len()..];
            let Some(open) = rest.find('"') else { continue };
            let lit = &rest[open + 1..];
            let Some(close) = lit.find('"') else { continue };
            let name = fill_placeholders(&lit[..close]);
            if !valid_metric_name(&name) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: Rule::Metric,
                    message: format!(
                        "metric name {:?} violates the `hcl_<crate>_<name>` convention",
                        &lit[..close]
                    ),
                });
            }
        }
    }
}

/// True when `tail` (the code following a `%` operator, already trimmed)
/// starts with an identifier path whose trailing segment is `denom`:
/// `servers.len()`, `self.core.servers.len()` and `cfg.nparts` all match
/// their denominators, `shards.len()` matches none.
fn tail_is_owner_math(tail: &str, denom: &str) -> bool {
    let Some(pos) = tail.find(denom) else {
        return false;
    };
    // Everything before the denominator must be a receiver path (`a.b.`),
    // and the denominator must sit on a path-segment boundary.
    let prefix = &tail[..pos];
    if !prefix.chars().all(|c| is_ident_char(c) || c == '.') {
        return false;
    }
    if !(pos == 0 || prefix.ends_with('.')) {
        return false;
    }
    // The denominator must end the term (`nparts` must not match `npartsx`).
    !tail[pos + denom.len()..].chars().next().is_some_and(is_ident_char)
}

/// Rule 6: no hand-rolled modulo owner math in the ownership stack — every
/// key→rank decision goes through the epoch-versioned `PartitionMap`.
fn check_membership(rel: &str, model: &FileModel, findings: &mut Vec<Finding>) {
    for idx in 0..model.len() {
        if model.test_scope[idx] {
            continue;
        }
        let line = &model.code[idx];
        let mut from = 0;
        while let Some(p) = line[from..].find('%') {
            let at = from + p;
            from = at + 1;
            // Trim the optional `=` of `%=` and any whitespace after the
            // operator before checking the denominator expression.
            let tail = line[at + 1..].trim_start_matches('=').trim_start();
            if let Some(denom) =
                OWNER_MATH_DENOMS.iter().find(|d| tail_is_owner_math(tail, d))
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: Rule::Membership,
                    message: format!(
                        "hand-rolled owner math (`% {denom}`) outside the partition \
                         map; resolve owners via `Membership`/`PartitionMap` instead"
                    ),
                });
                break; // one finding per line
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<Rule> {
        check_file(rel, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn annotated_unsafe_block_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(rules("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn deleting_the_safety_comment_fails() {
        // The negative control for the acceptance criterion: same code with
        // the SAFETY comment removed must produce a finding.
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(rules("crates/x/src/lib.rs", src), vec![Rule::Safety]);
    }

    #[test]
    fn multi_line_comment_run_counts() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: a long justification that\n    // wraps across several lines before\n    // the block itself.\n    unsafe { *p }\n}\n";
        assert!(rules("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unannotated_unsafe_impl_fails() {
        let src = "struct X;\nunsafe impl Send for X {}\n";
        assert_eq!(rules("crates/x/src/lib.rs", src), vec![Rule::Safety]);
        let ok = "struct X;\n// SAFETY: X owns no thread-affine state.\nunsafe impl Send for X {}\n";
        assert!(rules("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn pub_unsafe_fn_needs_safety_docs() {
        let bad = "/// Does a thing.\npub unsafe fn f() {}\n";
        assert_eq!(rules("crates/x/src/lib.rs", bad), vec![Rule::Safety]);
        let ok = "/// Does a thing.\n///\n/// # Safety\n/// Caller must hold the lock.\npub unsafe fn f() {}\n";
        assert!(rules("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn relaxed_store_needs_ordering_comment_in_covered_paths() {
        let bad = "fn f(a: &AtomicUsize) {\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert_eq!(rules("crates/containers/src/x.rs", bad), vec![Rule::Ordering]);
        // Deleting the comment is the failure mode; with it, clean.
        let ok = "fn f(a: &AtomicUsize) {\n    // ORDERING: statistic only.\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert!(rules("crates/containers/src/x.rs", ok).is_empty());
        // Outside the covered paths the rule does not apply.
        assert!(rules("crates/fabric/src/x.rs", bad).is_empty());
    }

    #[test]
    fn relaxed_load_is_exempt() {
        let src = "fn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::Relaxed)\n}\n";
        assert!(rules("crates/mem/src/x.rs", src).is_empty());
    }

    #[test]
    fn telemetry_and_bench_are_covered_paths() {
        let bad = "fn f(a: &AtomicUsize) {\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert_eq!(rules("crates/telemetry/src/x.rs", bad), vec![Rule::Ordering]);
        assert_eq!(rules("crates/bench/src/x.rs", bad), vec![Rule::Ordering]);
    }

    #[test]
    fn the_epoch_shim_is_a_covered_path() {
        let bad = "fn f(a: &AtomicUsize) {\n    a.store(0, Ordering::Relaxed);\n}\n";
        assert_eq!(rules("shims/crossbeam/src/epoch.rs", bad), vec![Rule::Ordering]);
        // Negative control: the annotated store is clean there too.
        let ok = "fn f(a: &AtomicUsize) {\n    // ORDERING: Relaxed — a hint only.\n    a.store(0, Ordering::Relaxed);\n}\n";
        assert!(rules("shims/crossbeam/src/epoch.rs", ok).is_empty());
        // The other shims stay outside the rule.
        assert!(rules("shims/parking_lot/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn multiline_compare_exchange_relaxed_failure_flagged() {
        let bad = concat!(
            "fn f(a: &AtomicUsize) {\n",
            "    let _ = a.compare_exchange(\n",
            "        0,\n",
            "        1,\n",
            "        Ordering::AcqRel,\n",
            "        Ordering::Relaxed,\n",
            "    );\n",
            "}\n"
        );
        assert_eq!(rules("crates/rpc/src/x.rs", bad), vec![Rule::Ordering]);
        let ok = concat!(
            "fn f(a: &AtomicUsize) {\n",
            "    // ORDERING: failure value is discarded; retry reloads.\n",
            "    let _ = a.compare_exchange(\n",
            "        0,\n",
            "        1,\n",
            "        Ordering::AcqRel,\n",
            "        Ordering::Relaxed,\n",
            "    );\n",
            "}\n"
        );
        assert!(rules("crates/rpc/src/x.rs", ok).is_empty());
    }

    #[test]
    fn test_modules_are_exempt_from_ordering() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn f(a: &AtomicUsize) {\n",
            "        a.fetch_add(1, Ordering::Relaxed);\n",
            "    }\n",
            "}\n"
        );
        assert!(rules("crates/containers/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_module_exemption_ends_at_closing_brace() {
        // The old line-based pass exempted everything from `#[cfg(test)]
        // mod` to end-of-file; the brace-tracked scope does not.
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn g(a: &AtomicUsize) {\n",
            "        a.store(1, Ordering::Relaxed);\n",
            "    }\n",
            "}\n",
            "fn f(a: &AtomicUsize) {\n",
            "    a.store(1, Ordering::Relaxed);\n",
            "}\n"
        );
        let found = check_file("crates/containers/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::Ordering);
        assert_eq!(found[0].line, 8);
    }

    #[test]
    fn ordering_comment_claiming_acquire_over_relaxed_op_is_stale() {
        // The acceptance fixture: the comment claims an Acquire protocol the
        // statement does not implement.
        let bad = concat!(
            "fn f(a: &AtomicUsize) {\n",
            "    // ORDERING: Acquire pairs with the writer's publication.\n",
            "    a.store(1, Ordering::Relaxed);\n",
            "}\n"
        );
        let found = check_file("crates/containers/src/x.rs", bad);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::Ordering);
        assert!(found[0].message.contains("stale"), "{}", found[0].message);
        assert!(found[0].message.contains("Acquire"), "{}", found[0].message);
        assert!(found[0].message.contains("Relaxed"), "{}", found[0].message);
    }

    #[test]
    fn ordering_comment_matching_the_op_passes() {
        let ok = concat!(
            "fn f(a: &AtomicUsize) {\n",
            "    // ORDERING: Relaxed — the counter is a statistic only.\n",
            "    a.fetch_add(1, Ordering::Relaxed);\n",
            "}\n"
        );
        assert!(rules("crates/containers/src/x.rs", ok).is_empty());
    }

    #[test]
    fn ordering_comment_with_partial_overlap_passes() {
        // A success/failure CAS comment naming both sides shares at least
        // one ordering with the statement: not stale.
        let ok = concat!(
            "fn f(a: &AtomicUsize) {\n",
            "    // ORDERING: AcqRel on success publishes the node; Relaxed\n",
            "    // on failure is fine because the retry reloads.\n",
            "    let _ = a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed);\n",
            "}\n"
        );
        assert!(rules("crates/containers/src/x.rs", ok).is_empty());
    }

    #[test]
    fn ordering_prose_without_ordering_names_is_never_stale() {
        let ok = concat!(
            "fn f(a: &AtomicUsize) {\n",
            "    // ORDERING: the counter feeds a debug display only.\n",
            "    a.fetch_add(1, Ordering::Relaxed);\n",
            "}\n"
        );
        assert!(rules("crates/containers/src/x.rs", ok).is_empty());
    }

    #[test]
    fn stale_safety_comment_is_flagged() {
        let bad = "fn f(x: u8) -> u8 {\n    // SAFETY: bounds checked above.\n    x + 1\n}\n";
        let found = check_file("crates/x/src/lib.rs", bad);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::Safety);
        assert!(found[0].message.contains("stale"), "{}", found[0].message);
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn free_floating_safety_prose_is_not_stale() {
        // A blank line separates the comment from the next statement: prose,
        // not an annotation.
        let ok = "fn f(x: u8) -> u8 {\n    // SAFETY: discussed in DESIGN.md.\n\n    x + 1\n}\n";
        assert!(rules("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn tokens_inside_string_literals_do_not_trigger() {
        // The scanner blanks string contents before any rule runs: `unsafe`
        // and atomic-mutation tokens inside literals are invisible.
        let src = concat!(
            "fn f() -> (&'static str, &'static str) {\n",
            "    let a = \"unsafe { *p }\";\n",
            "    let b = \"a.store(1, Ordering::Relaxed);\";\n",
            "    (a, b)\n",
            "}\n"
        );
        assert!(rules("crates/containers/src/x.rs", src).is_empty());
    }

    #[test]
    fn tokens_inside_comments_do_not_trigger() {
        let src = concat!(
            "fn f() {\n",
            "    // Explanatory prose: unsafe { *p } would be wrong here, as\n",
            "    // would a.store(1, Ordering::Relaxed) without a reason.\n",
            "    /* block prose: unsafe impl Send for X {} */\n",
            "    let _ = 1;\n",
            "}\n"
        );
        assert!(rules("crates/containers/src/x.rs", src).is_empty());
    }

    #[test]
    fn safety_annotation_inside_a_string_does_not_satisfy_the_rule() {
        let src = concat!(
            "fn f(p: *const u8) -> u8 {\n",
            "    let _msg = \"SAFETY: not a real annotation\";\n",
            "    unsafe { *p }\n",
            "}\n"
        );
        assert_eq!(rules("crates/x/src/lib.rs", src), vec![Rule::Safety]);
    }

    #[test]
    fn lifetimes_are_not_mistaken_for_char_literals() {
        // If the scanner treated `'a` as an unterminated char literal it
        // would swallow the rest of the file, including the unsafe block.
        let src = concat!(
            "fn f<'a>(x: &'a [u8], p: *const u8) -> u8 {\n",
            "    let _ = x;\n",
            "    let _c = 'q';\n",
            "    let _e = '\\n';\n",
            "    unsafe { *p }\n",
            "}\n"
        );
        assert_eq!(rules("crates/x/src/lib.rs", src), vec![Rule::Safety]);
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = concat!(
            "fn f() -> &'static str {\n",
            "    r#\"unsafe { nothing } a.store(1, Ordering::Relaxed)\"#\n",
            "}\n"
        );
        assert!(rules("crates/containers/src/x.rs", src).is_empty());
    }

    #[test]
    fn deref_without_guard_flagged() {
        let bad = concat!(
            "use crossbeam::epoch::Shared;\n",
            "fn f(s: Shared<'_, u8>) -> u8 {\n",
            "    // SAFETY: trust me.\n",
            "    *unsafe { s.deref() }\n",
            "}\n"
        );
        assert_eq!(rules("crates/containers/src/x.rs", bad), vec![Rule::Epoch]);
        let ok = concat!(
            "use crossbeam::epoch::{self, Shared};\n",
            "fn f(s: Shared<'_, u8>) -> u8 {\n",
            "    let guard = epoch::pin();\n",
            "    // SAFETY: pinned above.\n",
            "    *unsafe { s.deref() }\n",
            "}\n"
        );
        assert!(rules("crates/containers/src/x.rs", ok).is_empty());
    }

    #[test]
    fn epoch_rule_skipped_outside_epoch_files() {
        // `.deref()` on ordinary smart pointers in non-epoch code is fine.
        let src = "fn f(b: &Box<u8>) -> u8 {\n    *std::ops::Deref::deref(b)\n}\n";
        assert!(rules("crates/runtime/src/x.rs", src).is_empty());
    }

    #[test]
    fn direct_rpc_issue_in_container_module_flagged() {
        // The negative control for the dispatch-engine acceptance criterion:
        // a container module bypassing the Dispatcher must produce a finding.
        let bad = concat!(
            "fn f(&self) -> HclResult<bool> {\n",
            "    Ok(self.rank.invoke(ep, fn_id, &args)?)\n",
            "}\n"
        );
        assert_eq!(rules("crates/core/src/queue.rs", bad), vec![Rule::Dispatch]);
        let coalesced = "fn f(&self) {\n    let _ = self.rank.invoke_coalesced(ep, id, &v);\n}\n";
        assert_eq!(rules("crates/core/src/unordered.rs", coalesced), vec![Rule::Dispatch]);
        let tagged = "fn f(&self) {\n    let _ = self.rank.invoke_tagged(ep, id, tag, &k);\n}\n";
        assert_eq!(rules("crates/core/src/cache.rs", tagged), vec![Rule::Dispatch]);
        // One finding per offending line, even when several tokens match.
        let batch = "fn f(&self) {\n    let _ = self.rank.client().invoke_batch_slices(ep, it);\n}\n";
        assert_eq!(rules("crates/core/src/ordered.rs", batch), vec![Rule::Dispatch]);
    }

    #[test]
    fn dispatch_engine_file_is_exempt() {
        // The same issue path inside the engine itself is the point.
        let src = concat!(
            "fn f(&self) -> HclResult<bool> {\n",
            "    Ok(self.rank.invoke(ep, fn_id, &args)?)\n",
            "}\n",
            "fn g(&self) -> RpcResult<(u64, u64)> {\n",
            "    self.rank.invoke_tagged(ep, fn_id, tag, &args)\n",
            "}\n"
        );
        assert!(rules("crates/core/src/dispatch.rs", src).is_empty());
    }

    #[test]
    fn dispatch_token_inside_string_is_ignored() {
        let src = concat!(
            "fn f(&self) {\n",
            "    let _doc = \"call self.rank.invoke(ep, id, &args) via RpcClient\";\n",
            "}\n"
        );
        assert!(rules("crates/core/src/queue.rs", src).is_empty());
    }

    #[test]
    fn well_formed_metric_names_pass() {
        let src = concat!(
            "fn f(reg: &Registry) {\n",
            "    let c = reg.counter(\"hcl_rpc_slot_waits\");\n",
            "    let g = reg.gauge(\"hcl_fabric_sends\");\n",
            "    let h = reg.histogram(\"hcl_core_op_latency_remote_ns\");\n",
            "    let d = reg.histogram(&format!(\"hcl_core_op_{}_ns\", name));\n",
            "    drop((c, g, h, d));\n",
            "}\n"
        );
        assert!(rules("crates/core/src/meter.rs", src).is_empty());
    }

    #[test]
    fn malformed_metric_names_flagged() {
        // The negative controls for the METRIC acceptance criterion: missing
        // prefix, missing metric segment, and illegal characters must each
        // produce a finding.
        let no_prefix = "fn f(r: &Registry) {\n    let _ = r.counter(\"rpc_slot_waits\");\n}\n";
        assert_eq!(rules("crates/rpc/src/client.rs", no_prefix), vec![Rule::Metric]);
        let no_metric = "fn f(r: &Registry) {\n    let _ = r.gauge(\"hcl_rpc\");\n}\n";
        assert_eq!(rules("crates/rpc/src/client.rs", no_metric), vec![Rule::Metric]);
        let bad_chars = "fn f(r: &Registry) {\n    let _ = r.histogram(\"hcl_core_Op-Lat\");\n}\n";
        assert_eq!(rules("crates/core/src/meter.rs", bad_chars), vec![Rule::Metric]);
    }

    #[test]
    fn cache_metric_names_pass_the_convention() {
        // The lease-cache counter family registered by `CacheMetrics`
        // (crates/telemetry): every name the read path emits must satisfy
        // the `hcl_<crate>_<name>` shape the registry asserts at runtime.
        let src = concat!(
            "fn f(reg: &Registry) {\n",
            "    let a = reg.counter(\"hcl_core_cache_hits\");\n",
            "    let b = reg.counter(\"hcl_core_cache_misses\");\n",
            "    let c = reg.counter(\"hcl_core_cache_lease_grants\");\n",
            "    let d = reg.counter(\"hcl_core_cache_stale_expired\");\n",
            "    let e = reg.counter(\"hcl_core_cache_stale_version\");\n",
            "    let g = reg.counter(\"hcl_core_cache_stale_epoch\");\n",
            "    let h = reg.counter(\"hcl_core_cache_evictions\");\n",
            "    let j = reg.histogram(\"hcl_core_cache_local_get_ns\");\n",
            "    drop((a, b, c, d, e, g, h, j));\n",
            "}\n"
        );
        assert!(rules("crates/telemetry/src/cache.rs", src).is_empty());
    }

    #[test]
    fn malformed_cache_metric_names_flagged() {
        // Negative controls for the cache family: dropped `hcl_` prefix,
        // a bare `hcl_cache` with no metric segment, and uppercase/hyphen
        // characters must each produce a METRIC finding.
        let no_prefix = "fn f(r: &Registry) {\n    let _ = r.counter(\"core_cache_hits\");\n}\n";
        assert_eq!(rules("crates/telemetry/src/cache.rs", no_prefix), vec![Rule::Metric]);
        let no_metric = "fn f(r: &Registry) {\n    let _ = r.counter(\"hcl_cache\");\n}\n";
        assert_eq!(rules("crates/telemetry/src/cache.rs", no_metric), vec![Rule::Metric]);
        let bad_chars =
            "fn f(r: &Registry) {\n    let _ = r.histogram(\"hcl_core_Cache-Hits\");\n}\n";
        assert_eq!(rules("crates/telemetry/src/cache.rs", bad_chars), vec![Rule::Metric]);
    }

    #[test]
    fn persist_metric_names_pass_the_convention() {
        // The durability counter family registered by `PersistMetrics`
        // (crates/telemetry) for the WAL subsystem: every name the persist
        // path emits must satisfy the `hcl_<crate>_<name>` shape.
        let src = concat!(
            "fn f(reg: &Registry) {\n",
            "    let a = reg.counter(\"hcl_persist_appended\");\n",
            "    let b = reg.counter(\"hcl_persist_fsyncs\");\n",
            "    let c = reg.counter(\"hcl_persist_replayed\");\n",
            "    let d = reg.counter(\"hcl_persist_truncated_tail\");\n",
            "    let e = reg.counter(\"hcl_persist_recovered_ops\");\n",
            "    let g = reg.gauge(\"hcl_persist_snapshot_bytes\");\n",
            "    let h = reg.counter(\"hcl_persist_durable\");\n",
            "    let i = reg.counter(\"hcl_persist_dir_fsyncs\");\n",
            "    let j = reg.counter(\"hcl_persist_append_errors\");\n",
            "    let k = reg.counter(\"hcl_persist_commit_errors\");\n",
            "    let l = reg.gauge(\"hcl_rpc_server_ack_failures\");\n",
            "    let m = reg.counter(\"hcl_persist_compact_errors\");\n",
            "    let n = reg.counter(\"hcl_persist_replay_undecodable\");\n",
            "    drop((a, b, c, d, e, g, h, i, j, k, l, m, n));\n",
            "}\n"
        );
        assert!(rules("crates/telemetry/src/persist.rs", src).is_empty());
    }

    #[test]
    fn malformed_persist_metric_names_flagged() {
        // Negative controls for the persist family: dropped `hcl_` prefix,
        // a bare `hcl_persist` with no metric segment, and uppercase/hyphen
        // characters must each produce a METRIC finding.
        let no_prefix = "fn f(r: &Registry) {\n    let _ = r.counter(\"persist_fsyncs\");\n}\n";
        assert_eq!(rules("crates/telemetry/src/persist.rs", no_prefix), vec![Rule::Metric]);
        let no_metric = "fn f(r: &Registry) {\n    let _ = r.counter(\"hcl_persist\");\n}\n";
        assert_eq!(rules("crates/telemetry/src/persist.rs", no_metric), vec![Rule::Metric]);
        let bad_chars =
            "fn f(r: &Registry) {\n    let _ = r.gauge(\"hcl_persist_Snapshot-Bytes\");\n}\n";
        assert_eq!(rules("crates/telemetry/src/persist.rs", bad_chars), vec![Rule::Metric]);
        let bad_compact =
            "fn f(r: &Registry) {\n    let _ = r.counter(\"hcl_persist_compactErrors\");\n}\n";
        assert_eq!(rules("crates/telemetry/src/persist.rs", bad_compact), vec![Rule::Metric]);
        let bad_replay =
            "fn f(r: &Registry) {\n    let _ = r.counter(\"hcl_persist_replay-undecodable\");\n}\n";
        assert_eq!(rules("crates/telemetry/src/persist.rs", bad_replay), vec![Rule::Metric]);
    }

    #[test]
    fn pipeline_steps_outside_shard_rs_flagged() {
        // The negative controls for the SHARD acceptance criterion: each
        // step of the server-side pipeline, hand-threaded into a container
        // module, must produce a finding.
        let log = "fn put(&self) {\n    self.log.record_op(&rec, 0);\n}\n";
        assert_eq!(rules("crates/core/src/unordered.rs", log), vec![Rule::Shard]);
        let bulk = "fn push_bulk(&self) {\n    self.log.record_local(&rec, 2);\n}\n";
        assert_eq!(rules("crates/core/src/queue.rs", bulk), vec![Rule::Shard]);
        let fence = "fn len(&self) -> u64 {\n    self.log.read_fence();\n    0\n}\n";
        assert_eq!(rules("crates/core/src/queue.rs", fence), vec![Rule::Shard]);
        let compact = "fn end(&self) {\n    let _ = self.log.compact(snap.iter());\n}\n";
        assert_eq!(rules("crates/core/src/ordered.rs", compact), vec![Rule::Shard]);
        let repl = "fn put(&self) {\n    self.repl.forward(&w, 0, &s, 1, id, &b);\n}\n";
        assert_eq!(rules("crates/core/src/multimap.rs", repl), vec![Rule::Shard]);
        let fwd = "fn put(&self) {\n    self.repl.forward_to(&w, to, id, &b);\n}\n";
        assert_eq!(rules("crates/core/src/pqueue.rs", fwd), vec![Rule::Shard]);
        let mig = "fn mig_install(&self, k: K, v: V) -> bool {\n    true\n}\n";
        assert_eq!(rules("crates/core/src/unordered.rs", mig), vec![Rule::Shard]);
        let fm = "fn forward_migration(&self, k: &K) {\n    let _ = k;\n}\n";
        assert_eq!(rules("crates/core/src/ordered.rs", fm), vec![Rule::Shard]);
    }

    #[test]
    fn shard_rule_exempts_the_pipeline_and_the_definers() {
        let all = concat!(
            "fn mig_apply(&self) {\n",
            "    self.log.record_op(&rec, 0);\n",
            "    self.log.record_local(&rec, 0);\n",
            "    self.log.read_fence();\n",
            "    self.repl.forward_to(&w, to, id, &b);\n",
            "    let _ = self.log.compact(snap.iter());\n",
            "}\n"
        );
        assert!(rules("crates/core/src/shard.rs", all).is_empty());
        // The log's own module may call the log, the forwarder's module the
        // forwarder — but neither may grow the other's group or a `mig_*`.
        let log_only = "fn record(&self) {\n    self.log.record_op(&rec, 0);\n}\n";
        assert!(rules("crates/core/src/persist.rs", log_only).is_empty());
        assert_eq!(rules("crates/core/src/dispatch.rs", log_only), vec![Rule::Shard]);
        let fwd_only = "fn go(&self) {\n    self.repl.forward_to(&w, to, id, &b);\n}\n";
        assert!(rules("crates/core/src/dispatch.rs", fwd_only).is_empty());
        assert_eq!(rules("crates/core/src/persist.rs", fwd_only), vec![Rule::Shard]);
        let mig = "fn mig_end(&self) {}\n";
        assert_eq!(rules("crates/core/src/persist.rs", mig), vec![Rule::Shard]);
        // Outside the core crate, in its test tree, in `#[cfg(test)]`
        // modules, and inside strings or comments the rule does not apply.
        assert!(rules("crates/persist/src/wal.rs", all).is_empty());
        assert!(rules("crates/core/tests/shard_conformance.rs", all).is_empty());
        let in_mod = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn f(log: &ShardLog<u64>) {\n",
            "        log.compact(snap.iter()).unwrap();\n",
            "    }\n",
            "}\n"
        );
        assert!(rules("crates/core/src/persist.rs", in_mod).is_empty());
        let prose = "fn f() {\n    // never call log.read_fence() here\n    let _ = \"fn mig_x\";\n}\n";
        assert!(rules("crates/core/src/queue.rs", prose).is_empty());
        // Recording a histogram sample or a flight event is not logging a
        // mutation.
        let sample = "fn f(&self) {\n    self.op_hist(name).record(ns);\n    self.flight().record(ev);\n}\n";
        assert!(rules("crates/core/src/meter.rs", sample).is_empty());
    }

    #[test]
    fn metric_rule_exempts_test_modules_and_test_trees() {
        let in_mod = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn f(r: &Registry) {\n",
            "        let _ = r.counter(\"bogus_metric\");\n",
            "    }\n",
            "}\n"
        );
        assert!(rules("crates/telemetry/src/lib.rs", in_mod).is_empty());
        let bad = "fn f(r: &Registry) {\n    let _ = r.counter(\"bogus_metric\");\n}\n";
        assert!(rules("crates/telemetry/tests/alloc_counting.rs", bad).is_empty());
        assert!(rules("tests/fault_injection.rs", bad).is_empty());
    }

    #[test]
    fn metric_name_in_comment_is_ignored() {
        let src = "fn f() {\n    // e.g. reg.counter(\"bogus name\") would be rejected\n}\n";
        assert!(rules("crates/core/src/meter.rs", src).is_empty());
    }

    #[test]
    fn dispatch_rule_allows_recorder_invoke_and_other_crates() {
        // History recorders also expose `invoke`; the token set must not
        // match `r.invoke(op)`.
        let recorder = "fn f(&self) {\n    let tok = r.invoke(op);\n    drop(tok);\n}\n";
        assert!(rules("crates/core/src/unordered.rs", recorder).is_empty());
        // Outside the container modules the rule does not apply at all.
        let raw = "fn f(rank: &Rank) {\n    let _ = rank.invoke(ep, 0, &());\n}\n";
        assert!(rules("crates/bench/src/bin/table1.rs", raw).is_empty());
        assert!(rules("tests/end_to_end.rs", raw).is_empty());
    }

    #[test]
    fn modulo_owner_math_in_ownership_stack_flagged() {
        // The negative controls for the MEMBERSHIP acceptance criterion:
        // each hand-rolled `hash % N` owner computation in the scoped crates
        // must produce a finding. `% self.core.servers.len()` is the exact
        // shape of the old unordered.rs partitioning bug.
        let by_servers = concat!(
            "fn owner(&self, hash: u64) -> usize {\n",
            "    (hash as usize) % self.core.servers.len()\n",
            "}\n"
        );
        assert_eq!(rules("crates/core/src/unordered.rs", by_servers), vec![Rule::Membership]);
        let by_world = "fn owner(r: &Rank, h: u64) -> u32 {\n    (h % r.world_size()) as u32\n}\n";
        assert_eq!(rules("crates/runtime/src/lib.rs", by_world), vec![Rule::Membership]);
        let by_nparts = "fn vp(&self, h: u64) -> u32 {\n    (h % self.nparts) as u32\n}\n";
        assert_eq!(rules("crates/core/src/ordered.rs", by_nparts), vec![Rule::Membership]);
        let by_members = "fn f(h: usize, members: &[u32]) -> u32 {\n    members[h % members.len()]\n}\n";
        assert_eq!(rules("crates/runtime/src/coalesce.rs", by_members), vec![Rule::Membership]);
    }

    #[test]
    fn partition_map_file_is_exempt_from_membership() {
        // The map implementation is the one place the modulo is the point.
        let src = concat!(
            "fn seed(vparts: u32, members: &[u32]) -> Vec<u32> {\n",
            "    (0..vparts as usize).map(|i| members[i % members.len()]).collect()\n",
            "}\n"
        );
        assert!(rules("crates/runtime/src/membership.rs", src).is_empty());
    }

    #[test]
    fn non_owner_modulo_passes_membership() {
        // Local cache sharding, arithmetic modulo, and format-string `%`
        // lookalikes are all out of scope for the rule.
        let shards = "fn s(&self, h: u64) -> usize {\n    (h as usize) % self.shards.len()\n}\n";
        assert!(rules("crates/core/src/cache.rs", shards).is_empty());
        let arith = "fn f(i: usize) -> usize {\n    i % 4\n}\n";
        assert!(rules("crates/core/src/queue.rs", arith).is_empty());
        let in_str = "fn f() -> &'static str {\n    \"hash % servers.len() is banned\"\n}\n";
        assert!(rules("crates/core/src/queue.rs", in_str).is_empty());
        let in_comment = "fn f() {\n    // the old code did `hash % world_size()` here\n    let _ = 1;\n}\n";
        assert!(rules("crates/runtime/src/lib.rs", in_comment).is_empty());
        let suffix = "fn f(npartsx: u64, h: u64) -> u64 {\n    h % npartsx\n}\n";
        assert!(rules("crates/core/src/ordered.rs", suffix).is_empty());
    }

    #[test]
    fn membership_rule_scoped_to_ownership_stack() {
        // The same owner math outside core/runtime (and in test trees or
        // `#[cfg(test)]` modules, which pin map-vs-modulo agreement) is not
        // the rule's business.
        let bad = "fn owner(h: u64, n: usize) -> usize {\n    (h as usize) % servers.len()\n}\n";
        assert!(rules("crates/rpc/src/client.rs", bad).is_empty());
        assert!(rules("tests/membership.rs", bad).is_empty());
        assert!(rules("crates/runtime/tests/elastic.rs", bad).is_empty());
        let in_mod = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn owner(h: u64, members: &[u32]) -> u32 {\n",
            "        members[h as usize % members.len()]\n",
            "    }\n",
            "}\n"
        );
        assert!(rules("crates/runtime/src/lib.rs", in_mod).is_empty());
    }

    #[test]
    fn nested_block_comments_resolve() {
        let src = concat!(
            "fn f(p: *const u8) -> u8 {\n",
            "    /* outer /* inner */ still comment: unsafe { *p } */\n",
            "    // SAFETY: p is valid by contract.\n",
            "    unsafe { *p }\n",
            "}\n"
        );
        assert!(rules("crates/x/src/lib.rs", src).is_empty());
    }
}
