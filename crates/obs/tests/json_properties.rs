//! Property tests for the JSON codec over seeded random trees: printing
//! then parsing is the identity for finite trees (compact and pretty),
//! escaped input decodes to the same strings (including UTF-16 surrogate
//! pairs), the escaper writes the same bytes as a char-by-char reference,
//! nesting is accepted exactly up to [`json::MAX_DEPTH`], and non-finite
//! numbers print as `null`.

use gs_obs::json::{self, Json};
use gs_obs::Rng;
use std::collections::BTreeMap;

/// Cases per property.
const CASES: u64 = 256;

/// Characters that exercise every escape path: quotes, backslashes,
/// control characters, DEL, multibyte and astral-plane code points.
const SPECIALS: &[char] = &[
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '€',
    '\u{2028}',
    '😀',
    '\u{10FFFF}',
];

fn random_string(rng: &mut Rng) -> String {
    let len = rng.random_range(0..12);
    (0..len)
        .map(|_| match rng.random_range(0..4) {
            0 => char::from(rng.random_range(0x20u32..0x7f) as u8),
            1 => *rng.choose(SPECIALS).expect("non-empty"),
            // Every control character, each of which needs an escape.
            2 => char::from(rng.random_range(0u32..0x20) as u8),
            // Any scalar value; surrogates are not chars, so retry past them.
            _ => loop {
                if let Some(c) = char::from_u32(rng.random_range(0..=0x10FFFFu32)) {
                    break c;
                }
            },
        })
        .collect()
}

fn random_number(rng: &mut Rng) -> f64 {
    match rng.random_range(0..3) {
        0 => rng.random_range(-1_000_000i64..1_000_000) as f64,
        1 => rng.random_range(-1.0..1.0),
        // Any finite bit pattern, from subnormals to 1e308.
        _ => loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        },
    }
}

/// A tree whose deepest value sits exactly `depth` levels down (a scalar
/// is one level).
fn random_tree(rng: &mut Rng, depth: usize) -> Json {
    if depth == 1 {
        return match rng.random_range(0..6) {
            0 => Json::Null,
            1 => Json::Bool(rng.random_bool(0.5)),
            2 => Json::Num(random_number(rng)),
            3 => Json::Arr(Vec::new()),
            4 => Json::Obj(BTreeMap::new()),
            _ => Json::Str(random_string(rng)),
        };
    }
    // One child carries the full remaining depth; siblings are shallower.
    let width = rng.random_range(1..4);
    let deep = rng.random_range(0..width);
    let children: Vec<Json> = (0..width)
        .map(|i| {
            let d = if i == deep { depth - 1 } else { rng.random_range(1..=depth - 1) };
            random_tree(rng, d)
        })
        .collect();
    if rng.random_bool(0.5) {
        Json::Arr(children)
    } else {
        Json::Obj(children.into_iter().map(|c| (random_string(rng), c)).collect())
    }
}

/// `s` as a JSON literal with every non-ASCII character written as `\u`
/// escapes (astral characters as surrogate pairs).
fn escape_all(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='~' => out.push(c),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out.push('"');
    out
}

#[test]
fn print_then_parse_is_identity_for_finite_trees() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let depth = rng.random_range(1..=json::MAX_DEPTH);
        let tree = random_tree(&mut rng, depth);
        for printed in [tree.to_string(), tree.to_pretty_string()] {
            let back =
                json::parse(&printed).unwrap_or_else(|e| panic!("case {case}: {e} for {printed}"));
            assert_eq!(back, tree, "case {case}: {printed}");
        }
    }
}

#[test]
fn escaped_strings_and_surrogate_pairs_decode() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let s = random_string(&mut rng);
        let escaped = escape_all(&s);
        let back =
            json::parse(&escaped).unwrap_or_else(|e| panic!("case {case}: {e} for {escaped}"));
        assert_eq!(back.as_str(), Some(s.as_str()), "case {case}: {escaped}");
    }
}

/// The escaper `json::write_string` had before it copied unescaped runs:
/// one `char` at a time. The reference the byte scan must match.
fn write_string_by_char(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[test]
fn run_copy_escaper_matches_the_char_by_char_reference() {
    let check = |what: &str, s: &str| {
        let (mut got, mut want) = (String::from("[1,"), String::from("[1,"));
        json::write_string(&mut got, s);
        write_string_by_char(&mut want, s);
        assert_eq!(got, want, "{what}: {s:?}");
    };
    // Every control character, DEL and an astral character, in one string.
    let fixed: String = (0u8..0x20).map(char::from).chain(['\u{7f}', '😀']).collect();
    check("every control character", &fixed);
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        // Several generated strings back to back, so unescaped runs of
        // every length sit between escapes.
        let s: String = (0..4).map(|_| random_string(&mut rng)).collect();
        check(&format!("case {case}"), &s);
    }
}

#[test]
fn nesting_is_accepted_exactly_up_to_the_depth_limit() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let leaf = random_tree(&mut rng, 1);
        let mut tree = leaf;
        for _ in 1..json::MAX_DEPTH {
            tree = if rng.random_bool(0.5) {
                Json::Arr(vec![tree])
            } else {
                Json::obj(vec![("k", tree)])
            };
        }
        let at_limit = tree.to_string();
        assert_eq!(json::parse(&at_limit).ok(), Some(tree.clone()), "case {case}: {at_limit}");
        let over = Json::Arr(vec![tree]).to_string();
        assert!(json::parse(&over).is_err(), "case {case}: accepted {over}");
    }
}

#[test]
fn non_finite_numbers_print_as_null() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let bad = *rng.choose(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]).expect("non-empty");
        let tree = Json::Arr(vec![Json::Num(bad), Json::obj(vec![("x", Json::Num(bad))])]);
        assert_eq!(tree.to_string(), "[null,{\"x\":null}]", "case {case}: {bad}");
        assert_eq!(
            json::parse(&tree.to_pretty_string()).ok().map(|t| t.to_string()),
            Some(tree.to_string())
        );
    }
}
