//! Shared machinery for the Iustitia reproduction harness.
//!
//! Every table and figure of the paper has a repro binary under
//! `src/bin/` (see `DESIGN.md` for the experiment index); this library
//! holds the pieces they share — standard corpora, classifier-training
//! shorthand, evaluation helpers, and plain-text table/series printers
//! so each binary emits the same rows/series the paper reports. Every
//! timed measurement goes through [`report::sample_ns`], and every
//! perf binary's JSON document through [`report::Report`].
//!
//! Scale note: the paper's pool has ~90k files and its trace ~12M
//! packets. The defaults here are scaled down (hundreds of files,
//! `umass_scaled` traces) so every binary finishes in seconds to a few
//! minutes in release mode; the *shapes* — who wins, by what factor,
//! where crossovers fall — are what we compare, and each binary accepts
//! a `IUSTITIA_SCALE` environment variable to push toward paper scale.

#![forbid(unsafe_code)]

pub mod report;

use iustitia::features::{dataset_from_corpus, FeatureMode, TrainingMethod};
use iustitia::model::{ModelKind, NatureModel};
use iustitia_corpus::{CorpusBuilder, FileClass, LabeledFile};
use iustitia_entropy::FeatureWidths;
use iustitia_ml::svm::{Kernel, SvmParams};
use iustitia_ml::{ConfusionMatrix, Dataset};

/// Scale multiplier from the `IUSTITIA_SCALE` env var (default 1.0).
/// Multiplies corpus sizes and trace scales in the repro binaries.
pub fn env_scale() -> f64 {
    std::env::var("IUSTITIA_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Scales a count by [`env_scale`], with a floor of 1.
pub fn scaled(base: usize) -> usize {
    ((base as f64 * env_scale()).round() as usize).max(1)
}

/// The standard evaluation corpus: `per_class` files per class,
/// 1–64 KiB, mirroring the mixed sizes of the paper's pool.
pub fn standard_corpus(seed: u64, per_class: usize) -> Vec<LabeledFile> {
    CorpusBuilder::new(seed).files_per_class(per_class).size_range(1024, 65536).build()
}

/// A faster corpus for experiments that only consume prefixes.
pub fn prefix_corpus(seed: u64, per_class: usize, max_size: usize) -> Vec<LabeledFile> {
    CorpusBuilder::new(seed).files_per_class(per_class).size_range(1024, max_size).build()
}

/// The paper's SVM: RBF `γ=50, C=1000`, DAGSVM multi-class.
pub fn paper_svm() -> ModelKind {
    ModelKind::Svm(SvmParams::paper_rbf())
}

/// The §4.4.2 re-selected SVM for estimated vectors: RBF `γ=10, C=1000`.
pub fn estimated_svm() -> ModelKind {
    ModelKind::Svm(SvmParams {
        c: 1000.0,
        kernel: Kernel::Rbf { gamma: 10.0 },
        ..SvmParams::default()
    })
}

/// The paper's CART configuration.
pub fn paper_cart() -> ModelKind {
    ModelKind::paper_cart()
}

/// Trains on `train` and evaluates on `test`, returning the confusion
/// matrix.
pub fn train_eval(train: &Dataset, test: &Dataset, kind: &ModelKind) -> ConfusionMatrix {
    let model = NatureModel::train(train, kind).expect("training dataset covers every class");
    model.confusion_on(test)
}

/// Builds train/test datasets from two disjoint corpora under one
/// training method, then evaluates a model kind.
#[allow(clippy::too_many_arguments)]
pub fn corpus_train_eval(
    train_files: &[LabeledFile],
    test_files: &[LabeledFile],
    widths: &FeatureWidths,
    train_method: TrainingMethod,
    test_method: TrainingMethod,
    mode: FeatureMode,
    kind: &ModelKind,
    seed: u64,
) -> ConfusionMatrix {
    let train = dataset_from_corpus(train_files, widths, train_method, mode.clone(), seed);
    let test = dataset_from_corpus(test_files, widths, test_method, mode, seed ^ 0xBEEF);
    train_eval(&train, &test, kind)
}

/// Prints a Markdown-ish table: header row then aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        fmt_row(row);
    }
}

/// Prints an `(x, y...)` series with one line per x value.
pub fn print_series(
    title: &str,
    x_label: &str,
    series_labels: &[&str],
    points: &[(String, Vec<f64>)],
) {
    println!("\n## {title}\n");
    print!("{x_label:>12}");
    for l in series_labels {
        print!(" {l:>14}");
    }
    println!();
    for (x, ys) in points {
        print!("{x:>12}");
        for y in ys {
            print!(" {y:>14.4}");
        }
        println!();
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Per-class accuracy row (total, then one column per [`FileClass`])
/// from a confusion matrix — the layout of Tables 1 and 2.
pub fn accuracy_row(cm: &ConfusionMatrix) -> Vec<String> {
    let mut row = vec![pct(cm.accuracy())];
    for class in FileClass::ALL {
        row.push(pct(cm.class_accuracy(class.index())));
    }
    row
}

/// Prints a Table-1-style block: per-class accuracy plus the full
/// misclassification matrix.
pub fn print_confusion_block(name: &str, cm: &ConfusionMatrix) {
    println!("\n### {name}");
    println!("total accuracy: {}", pct(cm.accuracy()));
    let mut rows = Vec::new();
    for actual in FileClass::ALL {
        let mut row =
            vec![format!("{} file", actual.name()), pct(cm.class_accuracy(actual.index()))];
        for predicted in FileClass::ALL {
            if predicted == actual {
                row.push("-".into());
            } else {
                row.push(pct(cm.misclassification_rate(actual.index(), predicted.index())));
            }
        }
        rows.push(row);
    }
    let mut header = vec!["class".to_string(), "accuracy".to_string()];
    for predicted in FileClass::ALL {
        header.push(format!("-> {}", predicted.name()));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(&format!("{name}: accuracy and misclassification"), &header_refs, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_floors_at_one() {
        // env_scale defaults to 1.0 in tests (unless caller sets it)
        assert!(scaled(0) >= 1);
        assert_eq!(scaled(100), (100.0 * env_scale()).round() as usize);
    }

    #[test]
    fn accuracy_row_shape() {
        let mut cm = ConfusionMatrix::new(4);
        cm.record(0, 0);
        cm.record(1, 1);
        cm.record(2, 0);
        let row = accuracy_row(&cm);
        assert_eq!(row.len(), 5);
        assert_eq!(row[0], "66.67%");
    }

    #[test]
    fn corpus_train_eval_runs() {
        let train = prefix_corpus(1, 10, 4096);
        let test = prefix_corpus(2, 5, 4096);
        let cm = corpus_train_eval(
            &train,
            &test,
            &FeatureWidths::cart_selected(),
            TrainingMethod::Prefix { b: 64 },
            TrainingMethod::Prefix { b: 64 },
            FeatureMode::Exact,
            &paper_cart(),
            3,
        );
        assert_eq!(cm.total(), 20);
        assert!(cm.accuracy() > 0.5);
    }
}
