//! Logical experiments: Table VIII and the CVE exposure analysis (§V-D).

use super::Artifact;
use bp_analysis::table::{pct, Align, TextTable};
use bp_attacks::logical::{affected_share, NvdCensus};
use bp_topology::Snapshot;

/// Table VIII — top-5 software versions with release lag and user share.
pub fn table8(snapshot: &Snapshot) -> Artifact {
    let census = &snapshot.versions;
    let mut t = TextTable::new(
        ["Index", "Version", "Lag (days)", "Users %"]
            .map(String::from)
            .to_vec(),
    );
    t.align(0, Align::Right);
    t.align(2, Align::Right);
    t.align(3, Align::Right);
    for (i, v) in census.top(5).iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            v.name.clone(),
            census.release_lag_days(v).to_string(),
            pct(v.share),
        ]);
    }
    let notes = format!(
        "{} distinct client variants; newest Core release runs on {:.1}% of nodes (paper: 288 variants, 36.28%)\n",
        census.len(),
        census.latest_core_share() * 100.0
    );
    Artifact::new(
        "table8",
        "Top 5 software versions (paper Table VIII)",
        format!("{}{}", t.render(), notes),
    )
}

/// The CVE exposure table: share of the network each named vulnerability
/// reaches (§V-D's NVD mapping).
pub fn cve_exposure(snapshot: &Snapshot) -> Artifact {
    let nvd = NvdCensus::paper();
    let census = &snapshot.versions;
    let mut t = TextTable::new(
        ["CVE", "CVSS", "Affected share", "Description"]
            .map(String::from)
            .to_vec(),
    );
    t.align(1, Align::Right);
    t.align(2, Align::Right);
    for vuln in nvd.entries().iter().filter(|v| !v.synthetic) {
        t.row(vec![
            vuln.id.clone(),
            format!("{:.1}", vuln.cvss),
            pct(affected_share(census, vuln)),
            vuln.description.clone(),
        ]);
    }
    let notes = format!(
        "{} NVD records total ({} named, {} synthetic padding)\n",
        nvd.len(),
        nvd.entries().iter().filter(|v| !v.synthetic).count(),
        nvd.entries().iter().filter(|v| v.synthetic).count()
    );
    Artifact::new(
        "cve_exposure",
        "Client vulnerability exposure (paper §V-D)",
        format!("{}{}", t.render(), notes),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn table8_matches_census() {
        let snapshot = Scenario::new().scale(0.05).build_static().0;
        let a = table8(&snapshot);
        assert!(a.body.contains("Bitcoin Core v0.16.0"));
        assert!(a.body.contains("36.28%"));
    }

    #[test]
    fn cve_exposure_names_the_duplicate_inputs_bug() {
        let snapshot = Scenario::new().scale(0.05).build_static().0;
        let a = cve_exposure(&snapshot);
        assert!(a.body.contains("CVE-2018-17144"));
        assert!(a.body.contains("36 NVD records"));
        // Zero-exposure CVEs render unsigned in every build profile.
        assert!(!a.body.contains("-0.00%"), "signed zero in:\n{}", a.body);
    }
}
