//! The end-to-end pipeline: steps 1–5 of the paper's Fig. 1 plus the
//! corrected-program validation.

use atomask_inject::{
    classify, Campaign, CampaignConfig, CampaignResult, Classification, RunHealth,
};
use atomask_mask::{verify_masked_configured, MaskStrategy, Policy};
use atomask_mor::{MethodId, Program};
use std::collections::HashSet;

/// Everything the pipeline produced for one program.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Raw detection campaign data (runs, marks, baseline calls).
    pub detection: CampaignResult,
    /// Classification of the original program under the policy's filter.
    pub classification: Classification,
    /// Methods the policy selected for atomicity wrappers.
    pub mask_set: HashSet<MethodId>,
    /// Classification of the corrected program `P_C`.
    pub verified: Classification,
}

impl PipelineReport {
    /// `true` iff the corrected program exhibited no failure non-atomic
    /// method in the verification campaign.
    pub fn corrected_is_atomic(&self) -> bool {
        self.verified.method_counts.pure_nonatomic == 0
            && self.verified.method_counts.conditional == 0
    }

    /// Run health of the detection campaign (outcome counts, retries,
    /// fuel). Unhealthy runs contribute no marks to the classification;
    /// a non-zero [`RunHealth::unhealthy`] count means the classification
    /// rests on a partial sweep.
    pub fn detection_health(&self) -> RunHealth {
        self.classification.health
    }

    /// Run health of the verification campaign over the corrected program.
    pub fn verification_health(&self) -> RunHealth {
        self.verified.health
    }

    /// Display names of the methods that were wrapped.
    pub fn wrapped_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .mask_set
            .iter()
            .map(|m| self.detection.registry.method_display(*m))
            .collect();
        names.sort();
        names
    }
}

/// Runs detection → classification → policy → masking → verification over
/// one program.
///
/// ```
/// use atomask::{Pipeline, Policy};
/// let program = atomask::apps::program_by_name("LinkedBuffer").unwrap();
/// let report = Pipeline::new(&program)
///     .policy(Policy::default())
///     .run();
/// assert!(report.corrected_is_atomic());
/// ```
pub struct Pipeline<'p> {
    program: &'p dyn Program,
    policy: Policy,
    strategy: MaskStrategy,
    max_points: Option<u64>,
    campaign_config: CampaignConfig,
}

impl std::fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("program", &self.program.name())
            .field("strategy", &self.strategy)
            .field("max_points", &self.max_points)
            .field("campaign_config", &self.campaign_config)
            .finish()
    }
}

impl<'p> Pipeline<'p> {
    /// Creates a pipeline over `program` with the default policy.
    pub fn new(program: &'p dyn Program) -> Self {
        Pipeline {
            program,
            policy: Policy::default(),
            strategy: MaskStrategy::default(),
            max_points: None,
            campaign_config: CampaignConfig::default(),
        }
    }

    /// Sets the wrapping policy (§4.3).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the atomicity-wrapper strategy the corrected program is
    /// verified under (default [`MaskStrategy::DeepCopy`], Listing 2 as
    /// written).
    pub fn strategy(mut self, strategy: MaskStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Caps both campaigns at `cap` injection points (useful for quick
    /// looks at large programs; the default sweeps every point, as the
    /// paper does).
    pub fn max_points(mut self, cap: u64) -> Self {
        self.max_points = Some(cap);
        self
    }

    /// Sets the resilience configuration — fuel budget, retry policy, and
    /// failure cap — applied to **both** the detection and the
    /// verification campaign.
    pub fn campaign_config(mut self, config: CampaignConfig) -> Self {
        self.campaign_config = config;
        self
    }

    /// Executes the full pipeline.
    pub fn run(&self) -> PipelineReport {
        let mut campaign = Campaign::new(self.program).config(self.campaign_config);
        if let Some(cap) = self.max_points {
            campaign = campaign.max_points(cap);
        }
        let detection = campaign.run();
        let classification = classify(&detection, &self.policy.mark_filter());
        let mask_set = self.policy.mask_set(&classification);
        let verified = verify_masked_configured(
            self.program,
            &mask_set,
            &self.policy.mark_filter(),
            self.strategy,
            self.campaign_config,
            self.max_points,
        );
        PipelineReport {
            detection,
            classification,
            mask_set,
            verified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::validation_program;
    use atomask_inject::Verdict;

    #[test]
    fn pipeline_masks_the_validation_program() {
        let p = validation_program();
        let report = Pipeline::new(&p).run();
        assert!(
            report.classification.method_counts.pure_nonatomic > 0,
            "validation program plants pure non-atomic methods"
        );
        assert!(report.corrected_is_atomic(), "{:#?}", report.verified);
        assert!(!report.wrapped_names().is_empty());
    }

    #[test]
    fn wrap_everything_also_works() {
        let p = validation_program();
        let report = Pipeline::new(&p).policy(Policy::wrap_everything()).run();
        assert!(report.corrected_is_atomic());
        // Wrapping conditionals too means a strictly larger mask set.
        let default_report = Pipeline::new(&p).run();
        assert!(report.mask_set.len() >= default_report.mask_set.len());
    }

    #[test]
    fn max_points_caps_both_campaigns() {
        let p = validation_program();
        let report = Pipeline::new(&p).max_points(5).run();
        assert_eq!(report.detection.injections(), 5);
    }

    #[test]
    fn strategy_and_cap_reach_the_verification() {
        let p = crate::apps::program_by_name("LinkedBuffer").unwrap();
        let report = Pipeline::new(&p)
            .max_points(40)
            .strategy(MaskStrategy::UndoLog)
            .run();
        assert_eq!(report.verified.health.total(), 40);
        assert!(report.corrected_is_atomic(), "{:#?}", report.verified);
    }

    #[test]
    fn campaign_config_threads_through_both_campaigns() {
        let p = validation_program();
        let config = CampaignConfig {
            budget: atomask_mor::Budget::fuel(1_000_000),
            ..CampaignConfig::default()
        };
        let report = Pipeline::new(&p).campaign_config(config).run();
        assert!(report.corrected_is_atomic(), "{:#?}", report.verified);
        assert_eq!(report.detection_health().unhealthy(), 0);
        assert_eq!(report.verification_health().unhealthy(), 0);
        assert!(
            report.detection_health().fuel_spent > 0,
            "budgeted runs meter fuel"
        );
    }

    #[test]
    fn ground_truth_matches_classifier() {
        let p = validation_program();
        let report = Pipeline::new(&p).run();
        for (name, verdict) in crate::synthetic::ground_truth() {
            let got = report
                .classification
                .method(name)
                .unwrap_or_else(|| panic!("method {name} missing"))
                .verdict;
            assert_eq!(got, Some(verdict), "{name}");
        }
        let _ = Verdict::FailureAtomic;
    }
}
