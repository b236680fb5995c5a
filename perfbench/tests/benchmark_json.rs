//! `BENCHMARK.json` at the repository root lists exactly the metrics
//! the benchmark prints, with the same units.

use gridagg_core::json::Json;
use gridagg_perfbench::metrics::{END_TO_END, PER_LAYER};

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("parse BENCHMARK.json");
    assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
}
