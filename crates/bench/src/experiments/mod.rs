//! One module per paper artifact. See DESIGN.md §3 for the experiment
//! index mapping each module to the figure/table it regenerates.

pub mod appendixb;
pub mod caseb;
pub mod cells;
pub mod common;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod footnote2;
pub mod funnel;
pub mod impls;
pub mod kernels;
pub mod lbs;
pub mod memory;
pub mod radius;
pub mod table2;

use crate::report::{Report, Scale};
use tsdtw_mining::ParConfig;

/// The signature every experiment module's `run` conforms to. The
/// [`ParConfig`] carries the `--threads` worker count; experiments that
/// are inherently single-threaded take it as `_par` and ignore it.
pub type Runner = fn(&Scale, &ParConfig) -> Report;

/// All experiments in paper order: `(id, runner)`.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("fig1", fig1::run as Runner),
        ("fig2", fig2::run),
        ("caseb", caseb::run),
        ("fig3", fig3::run),
        ("fig4", fig4::run),
        ("fig6", fig6::run),
        ("table2", table2::run),
        ("footnote2", footnote2::run),
        ("appendixb", appendixb::run),
        ("impls", impls::run),
        ("lbs", lbs::run),
        ("radius", radius::run),
        ("cells", cells::run),
        ("kernels", kernels::run),
        ("memory", memory::run),
        ("funnel", funnel::run),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_lists_every_experiment_once() {
        let ids: Vec<&str> = super::all().iter().map(|(id, _)| *id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
        assert_eq!(ids.len(), 16);
        assert!(ids.contains(&"table2"));
        assert!(ids.contains(&"impls"));
        assert!(ids.contains(&"cells"));
        assert!(ids.contains(&"kernels"));
        assert!(ids.contains(&"memory"));
        assert!(ids.contains(&"funnel"));
    }
}
