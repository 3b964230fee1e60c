//! The per-layer budget, measured from outside: every layer's public
//! functions timed on their own, with iteration counts scaled to the call
//! (thousands of samples for microsecond calls, a handful for calls of
//! tens of milliseconds). Layer names are the repository's crates.
//!
//! These timings do not depend on the workload; the handful of per-layer
//! metrics that do (hit ratios, shards faulted) come from the workloads
//! themselves. No metric here has a regression bound: they explain a
//! movement of an end-to-end metric, they do not judge it.

use crate::fixture::{
    copy_dir, engine_over_store, err, hot_universe, imm_params, index_meta, nethept,
    prior_allocations, query, sample_sets, Res, Scratch, Served, INDEX_SEED, WORKERS,
};
use crate::report::{Measured, Metrics};
use crate::stats;
use crate::wirekit;
use crate::workloads::RunConfig;
use cwelmax_core::prelude::*;
use cwelmax_diffusion::{Allocation, SimulationConfig, WelfareEstimator};
use cwelmax_engine::wire::{self, Protocol};
use cwelmax_engine::{model_fingerprint, CampaignEngine, CampaignQuery, QueryAlgorithm, RrIndex};
use cwelmax_obs::TraceCtx;
use cwelmax_rrset::imm::imm_select;
use cwelmax_rrset::{condition_parts, RrCollection, StandardRr, WeightedRr, REGEN_SEED_XOR};
use cwelmax_store::{format, journal, write_store, JournaledStore, ShardedIndex};
use cwelmax_utility::configs::{self, SupConfig, TwoItemConfig};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Each sample of a fast call spans at least this long, so that reading
/// the clock is under a thousandth of what is measured.
const MIN_SAMPLE: Duration = Duration::from_micros(50);
/// Samples per microsecond-scale call.
const FAST_SAMPLES: usize = 1_000;
/// Time spent on each slower call, and the fewest samples taken of it.
const SLOW_BUDGET: Duration = Duration::from_millis(120);
const SLOW_SAMPLES: usize = 3;

/// Median nanoseconds per call of `run`, each sample preceded by an
/// untimed `prepare`. Calls faster than [`MIN_SAMPLE`] are repeated within
/// a sample; sampling goes on until both `min_samples` and `budget` are
/// met.
fn time_prepared<P>(
    min_samples: usize,
    budget: Duration,
    mut prepare: impl FnMut() -> P,
    mut run: impl FnMut(P),
) -> Measured {
    let first = {
        let p = prepare();
        let start = Instant::now();
        run(p);
        start.elapsed()
    };
    let calls = (MIN_SAMPLE.as_nanos() / first.as_nanos().max(1)).clamp(1, 10_000) as usize;
    let mut per_call_ns = Vec::with_capacity(min_samples);
    let began = Instant::now();
    while per_call_ns.len() < min_samples || began.elapsed() < budget {
        let mut total = Duration::ZERO;
        for _ in 0..calls {
            let p = prepare();
            let start = Instant::now();
            run(p);
            total += start.elapsed();
        }
        per_call_ns.push(total.as_nanos() as f64 / calls as f64);
        if per_call_ns.len() >= 100_000 {
            break;
        }
    }
    Measured {
        value: stats::median(&per_call_ns),
        unit: "ns",
        spread: stats::quartile_spread(&per_call_ns),
        samples: per_call_ns.len() as u64,
    }
}

fn fast(mut run: impl FnMut()) -> Measured {
    time_prepared(FAST_SAMPLES, Duration::ZERO, || (), |()| run())
}

fn slow(mut run: impl FnMut()) -> Measured {
    time_prepared(SLOW_SAMPLES, SLOW_BUDGET, || (), |()| run())
}

/// Rescale a nanosecond timing into the metric's unit.
fn scaled(m: Measured, unit: &'static str) -> Measured {
    let per = match unit {
        "us" => 1e3,
        "ms" => 1e6,
        _ => 1.0,
    };
    Measured {
        value: m.value / per,
        unit,
        ..m
    }
}

fn us(m: Measured) -> Measured {
    scaled(m, "us")
}

fn ms(m: Measured) -> Measured {
    scaled(m, "ms")
}

/// `count` per second, from a timing of producing `count`.
fn per_second(count: usize, m: Measured) -> Measured {
    Measured {
        value: count as f64 / (m.value / 1e9),
        unit: "1/s",
        ..m
    }
}

/// One hand-written NDJSON round trip on a raw socket.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl RawConn {
    fn open(addr: &str) -> Res<RawConn> {
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        Ok(RawConn {
            reader: BufReader::new(stream.try_clone().map_err(err)?),
            writer: stream,
            line: String::new(),
        })
    }

    fn roundtrip(&mut self, request: &[u8]) {
        self.line.clear();
        let sent = self
            .writer
            .write_all(request)
            .and_then(|()| self.writer.flush())
            .and_then(|()| self.reader.read_line(&mut self.line));
        black_box((&self.line, sent.is_ok()));
    }
}

/// Time `each(connection)` on two connections at once — one per core, as
/// the serving workloads run — and pool the samples.
fn on_two_connections<C: Send>(
    mut conns: Vec<C>,
    each: impl Fn(&mut C) + Sync,
) -> Res<(Measured, Vec<C>)> {
    let timings = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| {
                let each = &each;
                scope.spawn(move || fast(|| each(c)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a round-trip thread panicked".to_string())
            })
            .collect::<Res<Vec<Measured>>>()
    })?;
    let medians: Vec<f64> = timings.iter().map(|m| m.value).collect();
    Ok((
        Measured {
            value: stats::median(&medians),
            unit: "ns",
            spread: timings.iter().map(|m| m.spread).fold(0.0, f64::max),
            samples: timings.iter().map(|m| m.samples).sum(),
        },
        conns,
    ))
}

/// Everything the timings share: built once, outside every timing.
struct Bed {
    graph: Arc<cwelmax_graph::Graph>,
    collection: RrCollection,
    index: Arc<RrIndex>,
    engine: Arc<CampaignEngine>,
    hit: CampaignQuery,
    sp_nodes: Vec<u32>,
    scratch: Scratch,
}

impl Bed {
    fn build(cfg: &RunConfig) -> Res<Bed> {
        let t = &cfg.table;
        let graph = nethept();
        let collection = sample_sets(&graph, t.theta);
        let index = Arc::new(RrIndex::freeze(&collection, index_meta(&graph, t)));
        let scratch = Scratch::new(&cfg.scratch_root, "layers")?;
        let store_dir = scratch.path().join("index.store");
        write_store(&index, &store_dir, t.shards).map_err(err)?;
        let engine = Arc::new(engine_over_store(&store_dir, &graph)?);
        let hit = hot_universe(t).swap_remove(0);
        engine.query(&hit).map_err(err)?;
        let pool = index.greedy_select(t.budget_cap as usize).seeds;
        let sp_nodes = prior_allocations(&pool, 1)[0].seed_nodes();
        Ok(Bed {
            graph,
            collection,
            index,
            engine,
            hit,
            sp_nodes,
            scratch,
        })
    }

    fn store_dir(&self) -> std::path::PathBuf {
        self.scratch.path().join("index.store")
    }
}

/// Every workload-independent per-layer metric.
pub fn measure(cfg: &RunConfig) -> Res<Metrics> {
    let bed = Bed::build(cfg)?;
    let mut m = Metrics::new();
    graph_and_rrset(cfg, &bed, &mut m);
    diffusion_and_core(cfg, &bed, &mut m);
    let in_process = engine(cfg, &bed, &mut m)?;
    store(cfg, &bed, &mut m)?;
    server_and_client(&bed, &in_process, &mut m)?;
    Ok(m)
}

fn graph_and_rrset(cfg: &RunConfig, bed: &Bed, m: &mut Metrics) {
    let t = &cfg.table;
    let n = bed.graph.num_nodes();
    m.insert(
        "graph.generate_ms",
        ms(slow(|| {
            black_box(nethept());
        })),
    );
    let batch = t.theta / 5;
    let sample = |sampler: &dyn cwelmax_rrset::RrSampler| {
        per_second(
            batch,
            slow(|| {
                let mut c = RrCollection::new(n);
                c.extend_parallel(
                    &bed.graph,
                    sampler,
                    batch,
                    INDEX_SEED ^ REGEN_SEED_XOR,
                    WORKERS,
                );
                black_box(c.num_sets());
            }),
        )
    };
    m.insert("rrset.sample_sets_per_s", sample(&StandardRr));
    let weighted = WeightedRr::new(n, 1.0, bed.sp_nodes.iter().map(|&v| (v, 0.9)));
    m.insert("rrset.weighted_sample_sets_per_s", sample(&weighted));
    m.insert(
        "rrset.greedy_select_ms",
        ms(slow(|| {
            black_box(bed.collection.greedy_select(t.budget_cap as usize));
        })),
    );
    let (offsets, members, weights) = bed.collection.parts();
    m.insert(
        "rrset.condition_parts_ms",
        ms(slow(|| {
            black_box(condition_parts(n, offsets, members, weights, &bed.sp_nodes));
        })),
    );
}

fn diffusion_and_core(cfg: &RunConfig, bed: &Bed, m: &mut Metrics) {
    let t = &cfg.table;
    let sim = SimulationConfig {
        samples: t.solve_samples,
        threads: 1,
        base_seed: 0xE7A1,
    };
    let c1 = configs::two_item_config(TwoItemConfig::C1);
    let pool = bed.index.greedy_select(t.budget_cap as usize).seeds;
    // twenty seeds, as a full-budget campaign allocates
    let alloc = Allocation::from_item_seeds(0, &pool[..10])
        .union(&Allocation::from_item_seeds(1, &pool[10..20]));
    let estimator = WelfareEstimator::new(&bed.graph, &c1, sim);
    let welfare = slow(|| {
        black_box(estimator.welfare(&alloc));
    });
    m.insert(
        "diffusion.welfare_us_per_world",
        Measured {
            value: welfare.value / 1e3 / sim.samples as f64,
            unit: "us",
            ..welfare
        },
    );
    let imm = imm_params(INDEX_SEED);
    let solver_sim = SimulationConfig {
        threads: WORKERS,
        ..sim
    };
    let problem = Problem::new_shared(bed.graph.clone(), c1)
        .with_uniform_budget(10)
        .with_sim(solver_sim)
        .with_imm(imm);
    let solve = |name, solver: &dyn CwelMaxAlgorithm, p: &Problem, m: &mut Metrics| {
        m.insert(
            name,
            ms(slow(|| {
                black_box(solver.solve(p));
            })),
        );
    };
    solve("core.seqgrd_nm_solve_ms", &SeqGrd::nm(), &problem, m);
    solve("core.seqgrd_solve_ms", &SeqGrd::full(), &problem, m);
    solve("core.maxgrd_solve_ms", &MaxGrd, &problem, m);
    let inferior = imm_select(&bed.graph, &StandardRr, 20, &imm).seeds;
    let sup = Problem::new_shared(bed.graph.clone(), configs::supgrd_config(SupConfig::C6))
        .with_budgets(vec![20, 0])
        .with_fixed_allocation(Allocation::from_item_seeds(1, &inferior))
        .with_sim(solver_sim)
        .with_imm(imm);
    solve("core.supgrd_solve_ms", &SupGrd, &sup, m);
    m.insert(
        "core.assign_with_pool_us",
        us(fast(|| {
            black_box(SeqGrd::nm().solve_with_pool(&problem, &pool));
        })),
    );
}

/// Nanoseconds of the four in-process parts of one warm round trip.
struct InProcess {
    encode: f64,
    parse: f64,
    hit: f64,
    serialize: f64,
}

fn engine(cfg: &RunConfig, bed: &Bed, m: &mut Metrics) -> Res<InProcess> {
    let t = &cfg.table;
    let imm = imm_params(INDEX_SEED);
    m.insert(
        "engine.index_build_ms",
        ms(slow(|| {
            black_box(RrIndex::build(&bed.graph, t.budget_cap, &imm));
        })),
    );
    let meta = index_meta(&bed.graph, t);
    m.insert(
        "engine.index_freeze_ms",
        ms(slow(|| {
            black_box(RrIndex::freeze(&bed.collection, meta));
        })),
    );
    let engine = &bed.engine;
    let hit = fast(|| {
        black_box(engine.query(&bed.hit).is_ok());
    });
    m.insert(
        "engine.model_fingerprint_us",
        us(fast(|| {
            black_box(model_fingerprint(&bed.hit.model));
        })),
    );
    let line = wirekit::query_line(&bed.hit);
    let encode = fast(|| {
        black_box(wirekit::query_line(&bed.hit));
    });
    let parse = fast(|| {
        black_box(wire::parse_request_line(&line).is_ok());
    });
    let answer = engine.query(&bed.hit).map_err(err)?;
    let serialize = fast(|| {
        black_box(wire::to_line(&wire::answer_response(&answer, Protocol::V2)));
    });
    let in_process = InProcess {
        encode: encode.value,
        parse: parse.value,
        hit: hit.value,
        serialize: serialize.value,
    };
    m.insert("engine.wire_encode_query_us", us(encode));
    m.insert("engine.wire_parse_us", us(parse));
    m.insert("engine.wire_serialize_us", us(serialize));

    // twelve warm queries as one batch against the same twelve one by one
    let twelve: Vec<CampaignQuery> = hot_universe(t).into_iter().take(12).collect();
    for q in &twelve {
        engine.query(q).map_err(err)?;
    }
    let batch = fast(|| {
        black_box(engine.query_batch(&twelve, 0).len());
    });
    let singles = fast(|| {
        for q in &twelve {
            black_box(engine.query(q).is_ok());
        }
    });
    m.insert(
        "engine.batch12_over_12_singles_ratio",
        Measured::single(batch.value / singles.value.max(1.0), "ratio"),
    );

    // a miss: the same shape under a Monte-Carlo seed no cache has seen
    let mut mc_seed = 0x00B0_0000u64;
    m.insert(
        "engine.query_miss_ms",
        ms(time_prepared(
            SLOW_SAMPLES,
            SLOW_BUDGET,
            || {
                mc_seed += 1;
                query(
                    0,
                    [10, 10],
                    QueryAlgorithm::SeqGrdNm,
                    Allocation::new(),
                    t.novel_samples,
                    mc_seed,
                )
            },
            |q| {
                black_box(engine.query(&q).is_ok());
            },
        )),
    );
    let backend = engine.backend();
    m.insert(
        "engine.view_derive_ms",
        ms(slow(|| {
            black_box(backend.derive_conditioned(&bed.sp_nodes).is_ok());
        })),
    );
    let journaled = JournaledStore::open(bed.store_dir()).map_err(err)?;
    m.insert(
        "engine.pool_select_ms",
        ms(slow(|| {
            black_box(journaled.greedy_select(t.budget_cap as usize).is_ok());
        })),
    );

    // the repository's own tracing, always on, over the hit path
    let traced = fast(|| {
        let ctx = TraceCtx::new(1, true);
        black_box(engine.query_traced(&bed.hit, Some(ctx.root())).is_ok());
        black_box(ctx.finish());
    });
    m.insert(
        "obs.trace_on_ratio",
        Measured::single(traced.value / hit.value.max(1.0), "ratio"),
    );
    m.insert("engine.query_hit_us", us(hit));
    Ok(in_process)
}

fn store(cfg: &RunConfig, bed: &Bed, m: &mut Metrics) -> Res<()> {
    let t = &cfg.table;
    let base = bed.store_dir();
    let work = bed.scratch.path().join("work.store");
    let summary = write_store(&bed.index, &work, t.shards).map_err(err)?;
    m.insert(
        "store.bytes_per_set",
        Measured::single(
            summary.bytes_on_disk as f64 / summary.total_sets.max(1) as f64,
            "B",
        ),
    );
    m.insert(
        "store.write_store_ms",
        ms(slow(|| {
            black_box(write_store(&bed.index, &work, t.shards).is_ok());
        })),
    );
    m.insert(
        "store.manifest_open_us",
        us(fast(|| {
            black_box(ShardedIndex::open(&base).is_ok());
        })),
    );
    let shard0 = format::shard_path(&base, 0);
    m.insert(
        "store.shard_read_ms",
        ms(fast(|| {
            black_box(std::fs::read(&shard0).map_or(0, |b| b.len()));
        })),
    );
    let bytes = std::fs::read(&shard0).map_err(err)?;
    m.insert(
        "store.shard_decode_ms",
        ms(slow(|| {
            black_box(format::shard_from_bytes(&bytes).is_ok());
        })),
    );
    let open = || ShardedIndex::open(&base).ok();
    m.insert(
        "store.shard_fault_ms",
        ms(time_prepared(SLOW_SAMPLES, SLOW_BUDGET, open, |s| {
            black_box(s.is_some_and(|s| s.shard(0).is_ok()));
        })),
    );
    m.insert(
        "store.load_all_ms",
        ms(time_prepared(SLOW_SAMPLES, SLOW_BUDGET, open, |s| {
            black_box(s.is_some_and(|s| s.load_all().is_ok()));
        })),
    );

    // a topped-up store: its journal holds the one record a top-up appends
    let topped = bed.scratch.path().join("topped.store");
    copy_dir(&base, &topped)?;
    JournaledStore::open(&topped)
        .and_then(|s| s.ensure_theta(&bed.graph, t.theta_topped_up))
        .map_err(err)?;
    m.insert(
        "store.journal_replay_ms",
        ms(slow(|| {
            black_box(journal::replay_file(&topped).is_ok());
        })),
    );
    let record = journal::replay_file(&topped)
        .map_err(err)?
        .records
        .pop()
        .ok_or("the top-up left no journal record")?;
    let journal_dir = bed.scratch.path().join("journal-only");
    std::fs::create_dir_all(&journal_dir).map_err(err)?;
    m.insert(
        "store.journal_append_fsync_ms",
        ms(time_prepared(
            SLOW_SAMPLES,
            SLOW_BUDGET,
            || journal::remove(&journal_dir).is_ok(),
            |_| {
                black_box(journal::append(&journal_dir, &record).is_ok());
            },
        )),
    );
    m.insert(
        "store.topup_ms",
        ms(time_prepared(
            SLOW_SAMPLES,
            SLOW_BUDGET,
            || {
                copy_dir(&base, &work).ok();
                JournaledStore::open(&work).ok()
            },
            |s| {
                black_box(s.is_some_and(|s| s.ensure_theta(&bed.graph, t.theta_topped_up).is_ok()));
            },
        )),
    );
    m.insert(
        "store.compact_ms",
        ms(time_prepared(
            SLOW_SAMPLES,
            SLOW_BUDGET,
            || {
                copy_dir(&topped, &work).ok();
                JournaledStore::open(&work).ok()
            },
            |s| {
                black_box(s.is_some_and(|s| s.compact(Some(t.shards)).is_ok()));
            },
        )),
    );
    Ok(())
}

fn server_and_client(bed: &Bed, parts: &InProcess, m: &mut Metrics) -> Res<()> {
    let served = Served::start(Arc::clone(&bed.engine))?;
    let addr = served.addr();
    let timed = (|| -> Res<()> {
        let mut request = wirekit::query_line(&bed.hit).into_bytes();
        request.push(b'\n');
        let raws = vec![RawConn::open(&addr)?, RawConn::open(&addr)?];
        let (raw, raws) = on_two_connections(raws, |c| c.roundtrip(&request))?;
        let twelve = vec![bed.hit.clone(); 12];
        let mut batch_request = wirekit::batch_line(&twelve).into_bytes();
        batch_request.push(b'\n');
        let (batch, raws) = on_two_connections(raws, |c| c.roundtrip(&batch_request))?;
        drop(raws);
        let clients = vec![served.connect()?, served.connect()?];
        let (typed, clients) = on_two_connections(clients, |c| {
            black_box(c.query(&bed.hit).is_ok());
        })?;
        drop(clients);
        let connect = fast(|| {
            black_box(served.connect().is_ok());
        });

        // what no call from outside can see: a raw round trip minus the
        // server's three in-process parts, and the share of a typed round
        // trip that the four parts leave unexplained
        let served_ns = parts.parse + parts.hit + parts.serialize;
        m.insert(
            "server.socket_residual_us",
            Measured::single((raw.value - served_ns) / 1e3, "us"),
        );
        m.insert(
            "client.unexplained_share",
            Measured::single(
                1.0 - (parts.encode + served_ns) / typed.value.max(1.0),
                "ratio",
            ),
        );
        m.insert(
            "client.overhead_us",
            Measured::single((typed.value - raw.value) / 1e3, "us"),
        );
        m.insert("server.raw_roundtrip_us", us(raw));
        m.insert("server.batch12_roundtrip_us", us(batch));
        m.insert("client.typed_roundtrip_us", us(typed));
        m.insert("client.connect_hello_us", us(connect));
        Ok(())
    })();
    served.stop()?;
    timed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_calls_are_batched_into_samples_and_scaled() {
        let mut calls = 0u64;
        let m = fast(|| {
            calls += 1;
            black_box(calls);
        });
        assert!(m.samples >= FAST_SAMPLES as u64);
        assert!(
            calls > m.samples,
            "a nanosecond call is repeated per sample"
        );
        assert!(m.value > 0.0 && m.value < 1e6);
        assert_eq!(us(m.clone()).value, m.value / 1e3);
        assert_eq!(ms(m.clone()).unit, "ms");
        assert_eq!(per_second(10, Measured::single(1e9, "ns")).value, 10.0);
    }

    #[test]
    fn prepare_is_untimed_and_runs_before_every_call() {
        let mut prepared = 0u32;
        let mut ran = 0u32;
        let m = time_prepared(
            3,
            Duration::ZERO,
            || {
                std::thread::sleep(Duration::from_millis(2));
                prepared += 1;
            },
            |()| ran += 1,
        );
        assert_eq!(prepared, ran);
        assert!(
            m.value < 1e6,
            "the 2 ms of preparation are not in {}",
            m.value
        );
    }
}
