//! Document model for sustainability reports: reports contain pages, pages
//! contain text blocks, and some blocks are sustainability objectives
//! (Figure 1). GoalSpotter's detection stage classifies blocks; the detail
//! extractor runs on detected objective blocks.

use crate::banks;
use crate::grammar::{GrammarConfig, ObjectiveGrammar};
use gs_core::Annotations;
use gs_obs::Rng;

/// A text block within a report page.
#[derive(Clone, Debug)]
pub struct Block {
    /// The block text.
    pub text: String,
    /// Ground truth: whether this block states a sustainability objective.
    pub is_objective: bool,
    /// For objective blocks, the ground-truth components present in the
    /// text (used to evaluate end-to-end extraction).
    pub truth: Option<Annotations>,
}

/// A report page.
#[derive(Clone, Debug)]
pub struct Page {
    /// Text blocks in reading order.
    pub blocks: Vec<Block>,
}

/// A sustainability report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Owning company.
    pub company: String,
    /// Report title.
    pub title: String,
    /// Pages.
    pub pages: Vec<Page>,
}

impl Report {
    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.pages.iter().map(|p| p.blocks.len()).sum()
    }

    /// Number of ground-truth objective blocks.
    pub fn num_objectives(&self) -> usize {
        self.pages.iter().flat_map(|p| &p.blocks).filter(|b| b.is_objective).count()
    }

    /// Iterates over all blocks with their (page, block) position.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, usize, &Block)> {
        self.pages
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| p.blocks.iter().enumerate().map(move |(bi, b)| (pi, bi, b)))
    }
}

/// Configuration for report generation.
#[derive(Clone, Debug)]
pub struct ReportConfig {
    /// Blocks per page (inclusive range).
    pub blocks_per_page: (usize, usize),
    /// Grammar used for objective blocks.
    pub grammar: GrammarConfig,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig { blocks_per_page: (3, 6), grammar: GrammarConfig::default() }
    }
}

/// Generates a report for `company` with exactly `pages` pages containing a
/// total of `objectives` objective blocks scattered among noise blocks.
pub fn generate_report(
    company: &str,
    title: &str,
    pages: usize,
    objectives: usize,
    config: &ReportConfig,
    rng: &mut Rng,
) -> Report {
    let grammar = ObjectiveGrammar::new(config.grammar.clone());
    // Choose which pages carry objectives.
    let mut objective_pages = vec![0usize; pages.max(1)];
    for _ in 0..objectives {
        let p = rng.random_range(0..pages.max(1));
        objective_pages[p] += 1;
    }
    let mut next_id = 0u64;
    let pages_vec: Vec<Page> = (0..pages.max(1))
        .map(|p| {
            let (lo, hi) = config.blocks_per_page;
            let noise_blocks = rng.random_range(lo..=hi);
            let mut blocks: Vec<Block> = (0..noise_blocks)
                .map(|_| Block {
                    text: (*rng.choose(banks::NOISE_BLOCKS).expect("bank")).to_string(),
                    is_objective: false,
                    truth: None,
                })
                .collect();
            for _ in 0..objective_pages[p] {
                let g = grammar.generate(next_id, rng);
                next_id += 1;
                let pos = rng.random_range(0..=blocks.len());
                blocks.insert(
                    pos,
                    Block { text: g.objective.text, is_objective: true, truth: Some(g.truth) },
                );
            }
            Page { blocks }
        })
        .collect();
    Report { company: company.to_string(), title: title.to_string(), pages: pages_vec }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_requested_shape() {
        let mut rng = Rng::seed_from_u64(3);
        let r = generate_report("C1", "CSR 2025", 10, 7, &ReportConfig::default(), &mut rng);
        assert_eq!(r.pages.len(), 10);
        assert_eq!(r.num_objectives(), 7);
        assert!(r.num_blocks() >= 10 * 3 + 7);
    }

    #[test]
    fn objective_blocks_carry_truth() {
        let mut rng = Rng::seed_from_u64(4);
        let r = generate_report("C2", "ESG 2025", 5, 4, &ReportConfig::default(), &mut rng);
        for (_, _, b) in r.blocks() {
            assert_eq!(b.is_objective, b.truth.is_some());
        }
    }

    #[test]
    fn zero_objective_report_is_all_noise() {
        let mut rng = Rng::seed_from_u64(5);
        let r = generate_report("C3", "Annual", 3, 0, &ReportConfig::default(), &mut rng);
        assert_eq!(r.num_objectives(), 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            generate_report("C4", "T", 4, 3, &ReportConfig::default(), &mut rng)
        };
        let a = gen(9);
        let b = gen(9);
        let texts = |r: &Report| r.blocks().map(|(_, _, b)| b.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
    }
}
