//! Markdown renderers for experiment results — the tables the examples
//! print so a run can be compared against the paper.

use crate::experiments::{ClassScores, ConcreteRow, NameScores, SymbolicRow};
use std::fmt::Write;

/// Renders Table 2 rows for one dataset scale.
pub fn table2_markdown(scale_name: &str, rows: &[(String, NameScores)]) -> String {
    let mut out = String::new();
    writeln!(out, "| Model ({scale_name}) | Precision | Recall | F1 |").unwrap();
    writeln!(out, "|---|---|---|---|").unwrap();
    for (model, s) in rows {
        writeln!(out, "| {model} | {:.2} | {:.2} | {:.2} |", s.precision, s.recall, s.f1)
            .unwrap();
    }
    out
}

/// Renders a concrete-reduction figure (Fig. 6a/6b, 8-left).
pub fn concrete_markdown(title: &str, rows: &[ConcreteRow]) -> String {
    let mut out = String::new();
    writeln!(out, "| {title}: #concrete | LIGER F1 | DYPRO F1 | static-attn |").unwrap();
    writeln!(out, "|---|---|---|---|").unwrap();
    for r in rows {
        let attn = r
            .liger_static_attention
            .map_or_else(|| "-".to_string(), |a| format!("{a:.3}"));
        writeln!(out, "| {} | {:.2} | {:.2} | {attn} |", r.concrete, r.liger_f1, r.dypro_f1)
            .unwrap();
    }
    out
}

/// Renders a symbolic-reduction figure (Fig. 6c/6d, 9, 10).
pub fn symbolic_markdown(title: &str, rows: &[SymbolicRow]) -> String {
    let mut out = String::new();
    writeln!(out, "| {title}: paths | LIGER F1 | DYPRO F1 |").unwrap();
    writeln!(out, "|---|---|---|").unwrap();
    for r in rows {
        writeln!(out, "| {} | {:.2} | {:.2} |", r.level, r.liger_f1, r.dypro_f1).unwrap();
    }
    out
}

/// Renders Table 3.
pub fn table3_markdown(rows: &[(String, ClassScores)]) -> String {
    let mut out = String::new();
    writeln!(out, "| Model | Accuracy | F1 |").unwrap();
    writeln!(out, "|---|---|---|").unwrap();
    for (model, s) in rows {
        writeln!(out, "| {model} | {:.1}% | {:.2} |", s.accuracy, s.f1).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_nonempty_markdown() {
        let rows =
            vec![("LIGER".to_string(), NameScores { precision: 40.0, recall: 30.0, f1: 34.3 })];
        let t2 = table2_markdown("med", &rows);
        assert!(t2.contains("LIGER") && t2.contains("34.30"));

        let c = concrete_markdown(
            "fig6a",
            &[ConcreteRow {
                concrete: 5,
                liger_f1: 30.0,
                dypro_f1: 28.0,
                liger_static_attention: Some(0.6),
            }],
        );
        assert!(c.contains("0.600"));

        let s = symbolic_markdown(
            "fig6c",
            &[SymbolicRow { level: "min-cover".into(), liger_f1: 1.0, dypro_f1: 2.0 }],
        );
        assert!(s.contains("min-cover"));
    }
}
