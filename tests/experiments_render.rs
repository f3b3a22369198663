//! Every paper artifact must generate, render non-trivially, and carry
//! its expected markers — the smoke layer over the whole harness.

use bp_bench::{generate, ReproConfig, ARTIFACT_IDS};

fn quick() -> ReproConfig {
    ReproConfig {
        scale: 0.04,
        day_hours: 1,
        ..ReproConfig::quick()
    }
}

#[test]
fn all_artifacts_generate() {
    let artifacts = generate(&quick(), &["all".to_string()]);
    // Every declared artifact id appears (table8 also emits cve_exposure,
    // countermeasures emits three artifacts).
    assert!(artifacts.len() >= ARTIFACT_IDS.len());
    for a in &artifacts {
        assert!(!a.body.trim().is_empty(), "{} rendered empty", a.id);
        assert!(!a.title.is_empty());
    }
}

#[test]
fn artifacts_carry_expected_markers() {
    let artifacts = generate(&quick(), &["all".to_string()]);
    let body_of = |id: &str| -> &str {
        &artifacts
            .iter()
            .find(|a| a.id == id)
            .unwrap_or_else(|| panic!("artifact {id} missing"))
            .body
    };

    assert!(body_of("table1").contains("TOR"));
    assert!(body_of("table2").contains("Hetzner"));
    assert!(body_of("table3").contains("2017"));
    assert!(body_of("table4").contains("BTC.com"));
    assert!(body_of("fig3").contains("ASes"));
    assert!(body_of("fig4").contains("AS16509"));
    assert!(body_of("fig6_day").contains("1 block behind"));
    assert!(body_of("table5").contains("200"));
    assert!(body_of("table6").contains("589"));
    assert!(body_of("fig7").contains("grid at step 151"));
    assert!(body_of("table7").contains("AS"));
    assert!(body_of("fig8").contains("weakest instant"));
    assert!(body_of("table8").contains("v0.16.0"));
    assert!(body_of("implications").contains("hash power"));
    assert!(body_of("blockaware_defense").contains("BlockAware escapes"));
    assert!(body_of("stratum_diversification").contains("status quo"));
}

#[test]
fn selected_generation_filters() {
    let artifacts = generate(&quick(), &["table6".to_string(), "fig7".to_string()]);
    let ids: Vec<&str> = artifacts.iter().map(|a| a.id.as_str()).collect();
    assert_eq!(ids, vec!["table6", "fig7"]);
}

#[test]
fn csv_exports_parse_back() {
    let artifacts = generate(&quick(), &["fig3".to_string(), "fig4".to_string()]);
    for a in &artifacts {
        for (name, contents) in &a.csv {
            let rows = btcpart::analysis::csv::parse(contents)
                .unwrap_or_else(|e| panic!("{name} unparseable: {e}"));
            assert!(rows.len() > 1, "{name} has no data rows");
            let width = rows[0].len();
            assert!(rows.iter().all(|r| r.len() == width), "{name} ragged");
        }
    }
}

#[test]
fn generation_is_deterministic() {
    let a = generate(&quick(), &["table2".to_string(), "fig4".to_string()]);
    let b = generate(&quick(), &["table2".to_string(), "fig4".to_string()]);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.body, y.body, "{} not deterministic", x.id);
    }
}
