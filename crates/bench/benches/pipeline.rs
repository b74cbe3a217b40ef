//! Online pipeline hot paths — SHA-1 flow hashing (paper: ≈ 18 µs on
//! 2009 hardware), CDB lookup, and full packet-processing for both the
//! hit path and the classify path.
//!
//! Run: `cargo bench -p iustitia-bench --bench pipeline`. Each case is
//! timed by `report::sample_ns`; stderr gets one line per case and
//! stdout one `iustitia-bench/1` document.

use std::hint::black_box;
use std::net::Ipv4Addr;

use iustitia::cdb::{CdbConfig, ClassificationDatabase, FlowId};
use iustitia::features::{FeatureMode, TrainingMethod};
use iustitia::model::{train_from_corpus, ModelKind};
use iustitia::pipeline::{Iustitia, PipelineConfig};
use iustitia::sha1::sha1;
use iustitia_bench::report::Report;
use iustitia_corpus::{CorpusBuilder, FileClass};
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{FiveTuple, Packet, TcpFlags};

fn bench_sha1(report: &mut Report) {
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 4242, Ipv4Addr::new(10, 0, 0, 2), 443);
    let bytes = tuple.as_bytes();
    report.time_ns("sha1_flow_header", || sha1(black_box(&bytes)));
}

fn bench_cdb(report: &mut Report) {
    let mut cdb = ClassificationDatabase::new(CdbConfig::default());
    // Populate to the paper's steady-state size (~30k flows).
    for i in 0..30_000u32 {
        let mut id = [0u8; 20];
        id[..4].copy_from_slice(&i.to_be_bytes());
        cdb.insert(FlowId(id), FileClass::Binary, 0.0);
    }
    let probe = {
        let mut id = [0u8; 20];
        id[..4].copy_from_slice(&15_000u32.to_be_bytes());
        FlowId(id)
    };
    report.time_ns("cdb_lookup_30k", || cdb.lookup(black_box(&probe), 1.0));
}

fn trained_pipeline(seed: u64) -> Iustitia {
    let corpus = CorpusBuilder::new(seed).files_per_class(40).size_range(1024, 4096).build();
    let model = train_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        TrainingMethod::Prefix { b: 32 },
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        seed,
    )
    .expect("bench corpus covers every class");
    Iustitia::new(model, PipelineConfig::headline(seed))
}

fn bench_packet_paths(report: &mut Report) {
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 9), 999, Ipv4Addr::new(10, 0, 0, 2), 80);
    let payload: Vec<u8> = b"some flowing text that fills the buffer right away ok".to_vec();

    // Hit path: flow already classified.
    let mut hit_pipeline = trained_pipeline(1);
    let first = Packet { timestamp: 0.0, tuple, flags: TcpFlags::ACK, payload: payload.clone() };
    hit_pipeline.process_packet(&first);
    let follow = Packet { timestamp: 0.1, tuple, flags: TcpFlags::ACK, payload: payload.clone() };
    report.time_ns("process_packet_cdb_hit", || hit_pipeline.process_packet(black_box(&follow)));

    // Classify path: a fresh flow per iteration (buffer fills at once).
    let mut classify_pipeline = trained_pipeline(2);
    let mut port = 1000u16;
    report.time_ns("process_packet_classify_b32", || {
        port = port.wrapping_add(1).max(1000);
        let t = FiveTuple::tcp(Ipv4Addr::new(10, 1, 0, 1), port, Ipv4Addr::new(10, 0, 0, 2), 80);
        let p = Packet { timestamp: 0.0, tuple: t, flags: TcpFlags::ACK, payload: payload.clone() };
        classify_pipeline.process_packet(black_box(&p))
    });
}

fn main() {
    let mut report = Report::new("pipeline", false);
    bench_sha1(&mut report);
    bench_cdb(&mut report);
    bench_packet_paths(&mut report);
    report.print();
}
