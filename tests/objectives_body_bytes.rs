//! `GET /v1/objectives` streams each record from the shard view straight
//! into the response body. Seeded cases pin that those bytes are exactly
//! what printing the old `Json` trees gave: `DbStoreHook`'s streaming
//! writer equals the trait's provided (tree-encoding) method, and the HTTP
//! body equals `Json::obj` of the same records for both hooks.
//!
//! Records carry quotes, backslashes, every control character, DEL, 2-, 3-
//! and 4-byte UTF-8, NaN/±inf/-0 scores, and `None` or `Some("")` in every
//! optional field. Each case upserts a different number of records into a
//! one-shard store and then merges earlier ones, so reads see merged
//! entries both still in the delta (superseding their base entry) and
//! already folded, on both sides of the 128-upsert fold threshold.

use goalspotter::obs::Rng;
use goalspotter::pipeline::DbStoreHook;
use goalspotter::serve::{
    Client, ExtractEngine, Extraction, Json, ObjectiveStoreHook, Server, ServerConfig,
};
use goalspotter::store::{ObjectiveDb, ObjectiveRecord, StoreConfig};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x0b1e_c71e;
const CASES: u64 = 18;
/// Fresh objectives per case, cycled: under, at and over the fold
/// threshold (128) and its second multiple.
const INSERTS: [usize; 9] = [0, 3, 100, 127, 128, 129, 200, 256, 300];

/// The reads of `DbStoreHook` without its override: the provided
/// `write_company_records` encodes `company_records`, the reference.
struct Reference(Arc<DbStoreHook>);

impl ObjectiveStoreHook for Reference {
    fn record_extraction(
        &self,
        company: &str,
        document: &str,
        objective: &str,
        fields: &[(String, String)],
    ) -> Result<&'static str, String> {
        self.0.record_extraction(company, document, objective, fields)
    }

    fn company_records(&self, company: &str) -> Vec<Json> {
        self.0.company_records(company)
    }

    fn record_count(&self) -> usize {
        self.0.record_count()
    }
}

struct NoModel;

impl ExtractEngine for NoModel {
    fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
        texts.iter().map(|_| Extraction { fields: Vec::new() }).collect()
    }
}

/// Pieces a field is made of: plain words, every escape path and
/// multibyte UTF-8.
const PIECES: &[&str] = &[
    "Reduce",
    " emissions",
    " by 50%",
    "\"",
    "\\",
    "/",
    "\u{7f}",
    "é",
    "€",
    "\u{2028}",
    "😀",
    "\u{10FFFF}",
    " ",
];

fn text(rng: &mut Rng) -> String {
    (0..rng.random_range(1..8))
        .map(|_| {
            if rng.random_bool(0.3) {
                // Every control character below 0x20.
                char::from(rng.random_range(0u32..0x20) as u8).to_string()
            } else {
                rng.choose(PIECES).expect("pieces").to_string()
            }
        })
        .collect()
}

fn optional(rng: &mut Rng) -> Option<String> {
    match rng.random_range(0..3) {
        0 => None,
        1 => Some(String::new()),
        _ => Some(text(rng)),
    }
}

fn score(rng: &mut Rng) -> f64 {
    match rng.random_range(0..6) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => rng.random(),
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// A record of `company` under `objective`, every other field random.
fn record(rng: &mut Rng, company: &str, objective: &str) -> ObjectiveRecord {
    ObjectiveRecord {
        company: company.to_string(),
        document: text(rng),
        objective: objective.to_string(),
        action: optional(rng),
        amount: optional(rng),
        qualifier: optional(rng),
        baseline: optional(rng),
        deadline: optional(rng),
        score: score(rng),
        section_id: optional(rng),
        section_path: optional(rng),
        block_kind: optional(rng),
        source_range: optional(rng),
    }
}

fn percent_encode(s: &str) -> String {
    s.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                char::from(b).to_string()
            }
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// The body the tree path printed for `company`'s records.
fn tree_body(company: &str, records: Vec<Json>, trace_id: &str) -> String {
    Json::obj(vec![
        ("company", Json::Str(company.to_string())),
        ("count", records.len().into()),
        ("records", Json::Arr(records)),
        ("trace_id", Json::Str(trace_id.to_string())),
    ])
    .to_string()
}

/// Serves `hook` and checks the bodies for `company` and an unknown one.
fn check_served(what: &str, hook: Arc<dyn ObjectiveStoreHook>, company: &str, want: &[Json]) {
    let server = Server::start_with_store(Arc::new(NoModel), ServerConfig::default(), Some(hook))
        .expect("start server");
    let mut client = Client::connect(server.addr(), Duration::from_secs(10)).expect("connect");
    for (name, records) in [(company, want.to_vec()), ("Nobody Inc", Vec::new())] {
        let path = format!("/v1/objectives?company={}", percent_encode(name));
        let response = client.get(&path).expect("objectives");
        assert_eq!(response.status, 200, "{what}: {}", response.body);
        let trace_id = response.header("x-trace-id").expect("x-trace-id").to_string();
        assert_eq!(response.body, tree_body(name, records, &trace_id), "{what}: {name:?}");
    }
    let unknown = client.get("/v1/objectives?company=Nobody%20Inc").expect("unknown");
    assert!(unknown.body.contains("\"count\":0,\"records\":[]"), "{what}: {}", unknown.body);
    // Shutdown waits for open connections to close.
    drop(client);
    server.shutdown();
}

#[test]
fn objectives_body_is_byte_identical_to_the_tree_encoding() {
    for case in 0..CASES {
        let seed = SEED + case;
        let what = format!("case {case} (seed {seed})");
        let mut rng = Rng::seed_from_u64(seed);
        // One shard: every upsert of any company counts toward its fold.
        let db = Arc::new(ObjectiveDb::ephemeral(StoreConfig { shards: 1, ..Default::default() }));
        let company = format!("Acme {}", text(&mut rng));
        let other = format!("Other {}", text(&mut rng));
        let inserts = INSERTS[case as usize % INSERTS.len()];
        let mut objectives = Vec::new();
        let mut stream = Vec::new();
        for i in 0..inserts {
            let owner = if rng.random_bool(0.8) { &company } else { &other };
            let objective = format!("{i} {}", text(&mut rng));
            stream.push(record(&mut rng, owner, &objective));
            objectives.push((owner.clone(), objective));
        }
        // Merges of earlier objectives: the old base entry stays behind
        // until the next fold while the delta carries the merged one.
        for _ in 0..rng.random_range(0..=inserts.min(140)) {
            let (owner, objective) = &objectives[rng.random_range(0..objectives.len())];
            stream.push(record(&mut rng, owner, objective));
        }
        let mut rest = stream.as_slice();
        while !rest.is_empty() {
            let (batch, tail) = rest.split_at(rng.random_range(1..=20).min(rest.len()));
            for result in db.upsert_batch(batch) {
                result.unwrap_or_else(|e| panic!("{what}: upsert: {e}"));
            }
            rest = tail;
        }

        let hook = Arc::new(DbStoreHook::new(Arc::clone(&db)));
        let reference = Arc::new(Reference(Arc::clone(&hook)));
        for name in [company.as_str(), other.as_str(), "Nobody Inc"] {
            let (mut streamed, mut encoded) = (String::new(), String::new());
            let n = hook.write_company_records(name, &mut streamed);
            let m = reference.write_company_records(name, &mut encoded);
            assert_eq!((n, streamed.as_str()), (m, encoded.as_str()), "{what}: {name:?}");
        }
        // Both hooks read through the same visitor, so pin its order on
        // its own: first insert, even for merged records still in the delta.
        let want = hook.company_records(&company);
        let order: Vec<&str> = want.iter().filter_map(|r| r.get("objective")?.as_str()).collect();
        let inserted: Vec<&str> =
            objectives.iter().filter(|(owner, _)| *owner == company).map(|(_, o)| &**o).collect();
        assert_eq!(order, inserted, "{what}: records in first-insert order");
        check_served(&format!("{what}, streaming hook"), hook, &company, &want);
        check_served(&format!("{what}, reference hook"), reference, &company, &want);
    }
}
