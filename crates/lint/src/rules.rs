//! Pass-2 rule implementations.
//!
//! Per-file rules (D001–D005, D007–D009) scan one file's lexed lines
//! against its [`FileIndex`]; the cross-file rule D006 runs over the
//! whole workspace's analyses at once (it needs the `Payload` enum's
//! variant list next to every codec fn and protocol handler).

use crate::index::FileIndex;
use crate::lexer::{contains_word, LexedLine};
use crate::{FileAnalysis, Rule, Violation};

/// Crates whose state machines must stay deterministic (D001), whose
/// handler paths must stay panic-free (D003), that may not hold
/// `unsafe` (D005), whose `Payload` matches may not wildcard (D006),
/// and whose instrumentation may not perturb the RNG stream (D008).
pub const PROTOCOL_STATE_CRATES: &[&str] = &["core", "simnet", "hierarchy", "group", "aggregate"];

/// Crates allowed to touch wall clocks, OS threads, process state and
/// entropy (rule D002). `runtime` bridges to real sockets and clocks,
/// `bench` measures them, and the linter itself is a CLI tool.
pub const D002_EXEMPT_CRATES: &[&str] = &["runtime", "bench", "lint"];

/// D002 patterns: wall clocks, OS threads, process/env state, entropy.
const D002_PATTERNS: &[&str] = &[
    "SystemTime::now",
    "Instant::now",
    "std::thread",
    "std::process",
    "std::env",
    "thread_rng",
    "from_entropy",
    "RandomState",
];

/// D003 patterns: calls that can panic on malformed input.
const D003_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
];

/// Line markers indicating a float-valued expression feeding a `as
/// u*`/`as i*` cast (the D004 float→int direction).
const D004_FLOAT_MARKERS: &[&str] = &[
    ".ceil()", ".floor()", ".round()", ".trunc()", ".sqrt()", ": f64", ": f32",
];

/// Integer-target cast tokens for D004's float→int direction.
const D004_INT_CASTS: &[&str] = &[
    " as u8",
    " as u16",
    " as u32",
    " as u64",
    " as u128",
    " as usize",
    " as i8",
    " as i16",
    " as i32",
    " as i64",
    " as i128",
    " as isize",
];

/// D005 unchecked-access tokens. `.get_unchecked` also matches
/// `.get_unchecked_mut`; the raw-parts constructors cover hand-rolled
/// slice aliasing.
const D005_PATTERNS: &[&str] = &[".get_unchecked", "from_raw_parts"];

/// The wire enum whose variants D006 audits for codec and handler
/// completeness.
const WIRE_ENUM: &str = "Payload";

/// D007: the counted-set constructors. Counted `VoteSet`s drop exact
/// contributor tracking above `EXACT_TRACK_MAX`, which is only sound
/// for protocols that dedupe structurally; flood/centralized rely on
/// exact `try_merge` DoubleCount rejection for correctness.
const D007_CONSTRUCTORS: &[&str] = &[
    "for_scale",
    "singleton_for_scale",
    "empty_for_scale",
    "from_vote_for_scale",
];

/// Files allowed to call the counted-set constructors: the
/// structurally-deduping protocols.
const D007_ALLOWED_FILES: &[&str] = &[
    "crates/core/src/hiergossip.rs",
    "crates/core/src/baselines/flatgossip.rs",
    "crates/core/src/baselines/leader.rs",
];

/// D008 gate patterns: a line containing one of these that opens a
/// block makes the block an instrumentation-gated region. RNG draws
/// inside mean toggling tracing changes the random stream and breaks
/// byte-identical goldens.
pub const GATE_PATTERNS: &[&str] = &["phase_trace", "S::ENABLED", "is_traced("];

/// D008 RNG-draw patterns. `rng` is word-boundary matched so SoA
/// fields like `rngs` don't fire.
const D008_RNG_WORDS: &[&str] = &["rng", "DetRng"];
const D008_RNG_CALLS: &[&str] = &[
    ".unit()",
    ".chance(",
    ".below(",
    ".choose(",
    ".sample_distinct",
    ".fork(",
    ".next_u64",
];

/// D009 allocation-causing patterns, flagged inside `// lint:hot`
/// functions. `.clone()` is included because heap clones dominate the
/// hazard class; cheap `Arc` refcount bumps take a reasoned waiver.
const D009_ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "vec![",
    "String::new",
    ".to_string()",
    ".to_vec()",
    ".to_owned()",
    "format!(",
    "collect::<Vec",
    "Box::new",
    ".clone()",
];

/// Extract the crate name from a workspace-relative path:
/// `crates/<name>/src/...` → `<name>`; the root `src/` → `"gridagg"`.
pub fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        _ => "gridagg",
    }
}

/// Run every per-file rule over one analyzed file. Returns raw
/// (pre-waiver) violations; at most one per rule per line.
pub(crate) fn scan_file(
    path: &str,
    lines: &[LexedLine],
    excerpts: &[String],
    ix: &FileIndex,
) -> Vec<Violation> {
    let krate = crate_of(path);
    let d001 = PROTOCOL_STATE_CRATES.contains(&krate);
    let d002 = !D002_EXEMPT_CRATES.contains(&krate);
    let d003 = PROTOCOL_STATE_CRATES.contains(&krate);
    let d004 = krate == "aggregate";
    let d005 = PROTOCOL_STATE_CRATES.contains(&krate);
    // The runtime crate hosts protocol state machines on real sockets,
    // so the counted-set constructor restriction applies there too.
    let d007 = (PROTOCOL_STATE_CRATES.contains(&krate) || krate == "runtime")
        && krate != "aggregate"
        && !D007_ALLOWED_FILES.contains(&path);
    let d008 = PROTOCOL_STATE_CRATES.contains(&krate);

    let mut out: Vec<Violation> = Vec::new();
    let fire = |rule: Rule, lineno: usize, detail: String, out: &mut Vec<Violation>| {
        if out.iter().any(|v| v.rule == rule && v.line == lineno) {
            return;
        }
        out.push(Violation {
            rule,
            file: path.to_string(),
            line: lineno,
            excerpt: excerpts.get(lineno - 1).cloned().unwrap_or_default(),
            detail,
        });
    };

    for (idx, lexed) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = lexed.code.as_str();
        if ix.in_test[idx] {
            continue;
        }

        if d001 {
            for pat in ["HashMap", "HashSet"] {
                if code.contains(pat) {
                    fire(
                        Rule::D001,
                        lineno,
                        format!("`{pat}` has per-process iteration order; use BTreeMap/BTreeSet"),
                        &mut out,
                    );
                    break;
                }
            }
        }
        if d002 {
            if let Some(pat) = D002_PATTERNS.iter().find(|p| code.contains(*p)) {
                fire(
                    Rule::D002,
                    lineno,
                    format!("`{pat}` outside the runtime/bench crates"),
                    &mut out,
                );
            }
        }
        if d003 {
            let handler = ix.fn_for_line[idx]
                .map(|f| ix.fns[f].name.as_str())
                .filter(|n| n.starts_with("on_") || n.starts_with("decode"));
            if let Some(name) = handler {
                let name = name.to_string();
                if let Some(pat) = D003_PATTERNS.iter().find(|p| code.contains(*p)) {
                    fire(
                        Rule::D003,
                        lineno,
                        format!("`{pat}` can panic inside handler `{name}`"),
                        &mut out,
                    );
                }
            }
        }
        if d004 {
            let int_to_float = code.contains(" as f64") || code.contains(" as f32");
            let float_to_int = D004_INT_CASTS.iter().any(|c| code.contains(c))
                && D004_FLOAT_MARKERS.iter().any(|m| code.contains(m));
            if int_to_float || float_to_int {
                fire(
                    Rule::D004,
                    lineno,
                    "bare `as` float<->int cast; use the audited conv module".to_string(),
                    &mut out,
                );
            }
        }
        if d005 {
            if contains_word(code, "unsafe") {
                fire(Rule::D005, lineno, "`unsafe` block".to_string(), &mut out);
            } else if let Some(pat) = D005_PATTERNS.iter().find(|p| code.contains(*p)) {
                fire(Rule::D005, lineno, format!("`{pat}`"), &mut out);
            }
        }
        if d008 && ix.gated_for_line[idx] {
            let word_hit = D008_RNG_WORDS.iter().find(|w| contains_word(code, w));
            let call_hit = D008_RNG_CALLS.iter().find(|p| code.contains(*p));
            if let Some(pat) = word_hit.or(call_hit) {
                fire(
                    Rule::D008,
                    lineno,
                    format!("RNG draw (`{pat}`) inside an instrumentation-gated block"),
                    &mut out,
                );
            }
        }
        if ix.hot_for_line[idx] {
            if let Some(pat) = D009_ALLOC_PATTERNS.iter().find(|p| code.contains(*p)) {
                fire(
                    Rule::D009,
                    lineno,
                    format!("allocation (`{pat}`) inside a `// lint:hot` function"),
                    &mut out,
                );
            }
        }
    }

    if d007 {
        for call in &ix.calls {
            if D007_CONSTRUCTORS.contains(&call.name.as_str()) {
                fire(
                    Rule::D007,
                    call.line,
                    format!(
                        "counted-set constructor `{}` outside the structurally-deduping protocols",
                        call.name
                    ),
                    &mut out,
                );
            }
        }
    }

    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// Cross-file rule D006: wire-schema completeness.
///
/// - every `Payload` variant must appear in an `encode` fn and a
///   `decode` fn in the file that defines the enum;
/// - every protocol's `on_message` must mention every variant (handle
///   it or explicitly ignore it);
/// - a top-level `_ =>` wildcard in a `match` over `Payload` in a
///   protocol-state crate silently drops future variants and is
///   flagged at the wildcard arm.
pub(crate) fn check_wire_schema(analyses: &[FileAnalysis]) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::new();

    // Locate the wire enum (first definition wins; the workspace has
    // exactly one).
    let def = analyses.iter().find_map(|a| {
        a.index
            .enums
            .iter()
            .find(|e| e.name == WIRE_ENUM)
            .map(|e| (a, e))
    });
    let Some((def_file, def_enum)) = def else {
        // No Payload in scope (single-file lint of a non-codec file):
        // wildcard checking still applies below.
        wildcard_pass(analyses, &mut out);
        return out;
    };

    // Codec completeness: union of all `encode`/`decode` fn bodies in
    // the defining file must mention each variant.
    for codec_fn in ["encode", "decode"] {
        let spans: Vec<(usize, usize)> = def_file
            .index
            .fns
            .iter()
            .filter(|f| f.name == codec_fn)
            .map(|f| (f.body_open, f.body_close))
            .collect();
        if spans.is_empty() {
            continue; // no codec in this workspace slice; nothing to audit
        }
        for variant in &def_enum.variants {
            let needle = format!("{WIRE_ENUM}::{variant}");
            let mentioned = spans.iter().any(|&(lo, hi)| {
                def_file.lines[lo - 1..hi.min(def_file.lines.len())]
                    .iter()
                    .any(|l| contains_word(&l.code, &needle))
            });
            if !mentioned {
                out.push(Violation {
                    rule: Rule::D006,
                    file: def_file.path.clone(),
                    line: def_enum.line,
                    excerpt: def_file
                        .excerpts
                        .get(def_enum.line - 1)
                        .cloned()
                        .unwrap_or_default(),
                    detail: format!("`{needle}` has no arm in the wire `{codec_fn}` fn"),
                });
            }
        }
    }

    // Handler completeness: every protocol impl's `on_message` must
    // mention every variant.
    for a in analyses {
        if !a.index.has_protocol_impl {
            continue;
        }
        for f in a.index.fns.iter().filter(|f| f.name == "on_message") {
            for variant in &def_enum.variants {
                let needle = format!("{WIRE_ENUM}::{variant}");
                let mentioned = a.lines[f.body_open - 1..f.body_close.min(a.lines.len())]
                    .iter()
                    .any(|l| contains_word(&l.code, &needle));
                if !mentioned {
                    out.push(Violation {
                        rule: Rule::D006,
                        file: a.path.clone(),
                        line: f.body_open,
                        excerpt: a.excerpts.get(f.body_open - 1).cloned().unwrap_or_default(),
                        detail: format!(
                            "`{needle}` is neither handled nor explicitly ignored in `on_message`"
                        ),
                    });
                }
            }
        }
    }

    wildcard_pass(analyses, &mut out);
    out
}

/// The wildcard half of D006: flag `_ =>` arms in matches over the
/// wire enum inside protocol-state crates.
fn wildcard_pass(analyses: &[FileAnalysis], out: &mut Vec<Violation>) {
    for a in analyses {
        if !PROTOCOL_STATE_CRATES.contains(&crate_of(&a.path)) {
            continue;
        }
        for m in &a.index.matches {
            let over_wire = m.pattern_enums.iter().any(|e| e == WIRE_ENUM);
            if let (true, Some(wl)) = (over_wire, m.wildcard_line) {
                out.push(Violation {
                    rule: Rule::D006,
                    file: a.path.clone(),
                    line: wl,
                    excerpt: a.excerpts.get(wl - 1).cloned().unwrap_or_default(),
                    detail: format!(
                        "wildcard `_ =>` arm in a match over `{WIRE_ENUM}` silently drops new variants"
                    ),
                });
            }
        }
    }
}
