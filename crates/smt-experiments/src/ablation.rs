//! Ablation studies of DCRA's design choices — the knobs the paper
//! mentions tuning but does not fully tabulate:
//!
//! * the **activity-counter reset value** (§3.4 footnote: "several values
//!   for this parameter ranging from 64 to 8192" — 256 wins),
//! * the **sharing factor** `C` (§3.2/§5.3: `1/A`, `1/(A+4)`, `0`),
//! * the **degenerate-case detector** of
//!   [`dcra::Dcra::with_degenerate_detection`] (the paper's future work).
//!
//! Run the list with [`crate::sweep::run_study`].

use crate::runner::PolicyKind;
use dcra::{DcraConfig, SharingConfig, SharingFactor};

/// The labelled variants, in presentation order.
pub fn variants() -> Vec<(String, PolicyKind)> {
    let mut v = Vec::new();
    // Activity-counter sweep (paper: 64..8192, 256 best).
    for init in [64u32, 256, 1024, 8192] {
        v.push((
            format!("activity init {init}"),
            PolicyKind::Dcra(DcraConfig {
                activity_init: init,
                ..DcraConfig::default()
            }),
        ));
    }
    // Sharing-factor sweep.
    for (label, f) in [
        ("C = 1/A", SharingFactor::Inverse),
        ("C = 1/(A+4)", SharingFactor::InversePlus4),
        ("C = 0", SharingFactor::Zero),
    ] {
        v.push((
            format!("sharing {label}"),
            PolicyKind::Dcra(DcraConfig {
                sharing: SharingConfig {
                    queue_factor: f,
                    reg_factor: f,
                },
                ..DcraConfig::default()
            }),
        ));
    }
    // Degenerate-case detector (future work).
    v.push((
        "DCRA-DC (degenerate detection)".to_string(),
        PolicyKind::DcraDc,
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::study_workloads;

    #[test]
    fn variant_list_covers_all_knobs() {
        let labels: Vec<String> = variants().into_iter().map(|(l, _)| l).collect();
        assert!(labels.iter().any(|l| l.contains("activity init 256")));
        assert!(labels.iter().any(|l| l.contains("C = 0")));
        assert!(labels.iter().any(|l| l.contains("DCRA-DC")));
        assert!(!labels.iter().any(|l| l.contains("ROM")));
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn ablation_workloads_are_two_threaded() {
        for w in study_workloads() {
            assert_eq!(w.threads(), 2);
        }
        assert_eq!(study_workloads().len(), 8);
    }
}
