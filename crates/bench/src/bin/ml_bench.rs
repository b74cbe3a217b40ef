//! ML-layer benchmark: serial vs parallel training, boxed vs compiled
//! inference.
//!
//! The "old" side of every comparison is the library's own reference
//! path, which still exists unchanged: single-threaded fits
//! (`Parallelism::serial()`, the exact pre-parallelism code path) and
//! the boxed pointer-chasing models (`DecisionTree`, `DagSvm`). The
//! "new" side is the scoped-thread fit and the compiled flat models
//! (`CompiledTree`, `CompiledDag`).
//!
//! A startup sanity pass asserts, on a full synthetic corpus, that
//! (1) models fitted with N worker threads are bit-identical
//! (`PartialEq`) to serial fits, and (2) compiled models return the
//! same label as their boxed originals on every corpus vector, before
//! anything is timed.
//!
//! Timed matrix: DAGSVM fit and 10-fold CART cross-validation, serial
//! vs auto-parallel; single-vector predict, boxed vs compiled, for
//! CART and DAGSVM. Stdout is one `iustitia-bench/1` document
//! (`results/BENCH_ml.json`); stderr carries one line per metric and
//! the speedups.
//!
//! `--smoke` runs the whole matrix with minimal iteration counts so CI
//! can verify the harness (including both sanity passes) end-to-end.

use iustitia::features::{FeatureMode, TrainingMethod};
use iustitia::model::{ModelKind, NatureModel};
use iustitia_bench::report::{sample_ns, Report};
use iustitia_corpus::CorpusBuilder;
use iustitia_entropy::FeatureWidths;
use iustitia_ml::cart::{CartParams, DecisionTree};
use iustitia_ml::compiled::{CompiledDag, CompiledTree};
use iustitia_ml::crossval::cross_validate_with;
use iustitia_ml::multiclass::DagSvm;
use iustitia_ml::svm::SvmParams;
use iustitia_ml::{Classifier, Dataset, Parallelism};

/// Entropy-vector dataset over a full synthetic corpus — the same
/// extraction the offline trainer runs (Figure 1, right half).
fn corpus_dataset() -> Dataset {
    // b = 256: the paper's high-speed small-buffer regime, where the
    // binary/encrypted bands overlap and the SVMs retain many shared
    // support vectors.
    let corpus = CorpusBuilder::new(33).files_per_class(60).size_range(1024, 4096).build();
    iustitia::features::dataset_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        TrainingMethod::Prefix { b: 256 },
        FeatureMode::Exact,
        33,
    )
}

fn svm_params(parallelism: Parallelism) -> SvmParams {
    // The paper's best model: RBF γ=50, C=1000 (Section 4.3).
    SvmParams { parallelism, ..SvmParams::paper_rbf() }
}

fn cart_params(parallelism: Parallelism) -> CartParams {
    CartParams { parallelism, ..CartParams::default() }
}

/// Samples of ns per single-vector predict: each sample times passes
/// over every vector in `vectors`.
fn per_predict(
    smoke: bool,
    vectors: &[&[f64]],
    mut predict: impl FnMut(&[f64]) -> usize,
) -> Vec<f64> {
    let pass = sample_ns(smoke, || vectors.iter().map(|x| predict(x)).sum::<usize>());
    pass.into_iter().map(|ns| ns / vectors.len() as f64).collect()
}

fn main() {
    let mut report = Report::new("ml_bench", std::env::args().any(|a| a == "--smoke"));
    let threads = Parallelism::auto().resolve();
    let ds = corpus_dataset();

    // Sanity 1: parallel fits are bit-identical to serial fits.
    let dag_serial = DagSvm::fit(&ds, &svm_params(Parallelism::serial()));
    let dag_parallel = DagSvm::fit(&ds, &svm_params(Parallelism::fixed(4)));
    assert_eq!(dag_serial, dag_parallel, "DAGSVM fit must not depend on thread count");
    let tree_serial = DecisionTree::fit(&ds, &cart_params(Parallelism::serial()));
    let tree_parallel = DecisionTree::fit(&ds, &cart_params(Parallelism::fixed(4)));
    assert_eq!(tree_serial, tree_parallel, "CART fit must not depend on thread count");
    let cv_serial = cross_validate_with(&ds, 10, 33, Parallelism::serial(), |t| {
        DecisionTree::fit(t, &cart_params(Parallelism::serial()))
    });
    let cv_parallel = cross_validate_with(&ds, 10, 33, Parallelism::fixed(4), |t| {
        DecisionTree::fit(t, &cart_params(Parallelism::serial()))
    });
    assert_eq!(cv_serial, cv_parallel, "cross-validation must not depend on thread count");

    // Sanity 2: compiled models agree with their boxed originals on
    // every corpus vector (and through the NatureModel wrapper).
    let tree_fast = CompiledTree::compile(&tree_serial);
    let mut dag_fast = CompiledDag::compile(&dag_serial);
    let boxed_model = NatureModel::train(&ds, &ModelKind::Cart(cart_params(Parallelism::serial())))
        .expect("train");
    let mut compiled_model = boxed_model.compile();
    for (x, _) in ds.iter() {
        assert_eq!(tree_fast.predict(x), Classifier::predict(&tree_serial, x));
        assert_eq!(dag_fast.predict(x), Classifier::predict(&dag_serial, x));
        assert_eq!(compiled_model.predict(x), boxed_model.predict(x));
    }
    eprintln!(
        "sanity: parallel==serial fits and compiled==boxed predictions \
         on all {} corpus vectors",
        ds.len()
    );

    let n = ds.len();
    let vectors: Vec<&[f64]> = ds.iter().map(|(x, _)| x).collect();
    report
        .param("threads", threads)
        .param("n_samples", n)
        .param("n_features", ds.n_features())
        .param("cart_nodes", tree_fast.n_nodes())
        .param("dagsvm_distinct_svs", dag_fast.n_distinct_support_vectors())
        .param("dagsvm_terms", dag_fast.n_terms());

    // --- training ---
    let cv = |parallelism| {
        cross_validate_with(&ds, 10, 33, parallelism, |t| {
            DecisionTree::fit(t, &cart_params(Parallelism::serial()))
        })
    };
    let serial = report
        .time_ns("ml/fit/dagsvm/serial", || DagSvm::fit(&ds, &svm_params(Parallelism::serial())));
    let parallel = report
        .time_ns("ml/fit/dagsvm/parallel", || DagSvm::fit(&ds, &svm_params(Parallelism::auto())));
    eprintln!("ml/fit/dagsvm  speedup: {:.2}x ({threads} threads)", serial / parallel);
    let serial = report.time_ns("ml/cv10/cart/serial", || cv(Parallelism::serial()));
    let parallel = report.time_ns("ml/cv10/cart/parallel", || cv(Parallelism::auto()));
    eprintln!("ml/cv10/cart  speedup: {:.2}x ({threads} threads)", serial / parallel);

    // --- inference (ns per single-vector predict, averaged over the
    // whole corpus so every tree path and DAG route is exercised) ---
    let smoke = report.smoke();
    let boxed = report.metric(
        "ml/predict/cart/boxed",
        "ns",
        per_predict(smoke, &vectors, |x| Classifier::predict(&tree_serial, x)),
    );
    let compiled = report.metric(
        "ml/predict/cart/compiled",
        "ns",
        per_predict(smoke, &vectors, |x| tree_fast.predict(x)),
    );
    eprintln!("ml/predict/cart  speedup: {:.2}x", boxed / compiled);
    let boxed = report.metric(
        "ml/predict/dagsvm/boxed",
        "ns",
        per_predict(smoke, &vectors, |x| Classifier::predict(&dag_serial, x)),
    );
    let compiled = report.metric(
        "ml/predict/dagsvm/compiled",
        "ns",
        per_predict(smoke, &vectors, |x| dag_fast.predict(x)),
    );
    eprintln!("ml/predict/dagsvm  speedup: {:.2}x", boxed / compiled);

    report.print();
}
