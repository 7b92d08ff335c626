/**
 * @file
 * Engine workloads: one OramSystem (PIC_X32, Flat backend, 16 MB of
 * 64 B blocks) driven by one client thread through
 * OramSystem::submit() in spans of 16 requests.
 *
 *   path-uniform  Path buckets, uniform addresses, 25% writes
 *   ring-zipf     Ring buckets, Zipf(0.99) addresses, 5% writes
 *
 * Each of three rounds sets up a system (construct + sequential bulk
 * load of every block, timed apart from the rest) and runs one third of
 * the fixed-count timed phase on it. The last system is then sealed to
 * a Full snapshot, dropped and reopened with OramSystem::open() three
 * times, re-reading a seeded sample through each reopened system.
 */
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/unified_frontend.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace froram;

namespace {

constexpr u64 kSpan = 16;          ///< requests per submit() call
constexpr u64 kRounds = 3;         ///< set-up + timed segment each
constexpr u64 kBlocks = 24;        ///< timed blocks, over all rounds
constexpr u64 kSystemSeed = 0x5eed; ///< keys + remap RNG (fixed)

struct EngineSpec {
    BucketSchemeKind scheme;
    Dist dist;
    u32 writePct;
    u64 capacityBytes;
    /** Requests per second of --seconds: sizes the fixed-count phase. */
    u64 nominalRate;
};

/** Public counters of one PIC_X32 system (frontend, PLB, backend). */
struct Counters {
    u64 bytesMoved = 0, posmapBytes = 0, treeAcc = 0;
    u64 macChecks = 0, groupRemaps = 0, plbHits = 0, plbMisses = 0;
    u64 pathReads = 0, pathWrites = 0, onlineReads = 0, onlineBlocks = 0;
    u64 evictPaths = 0, reshuffles = 0;
    u64 stashPeak = 0; ///< a high-water mark: max, not summed

    /** Accumulate another delta (max of the high-water marks). */
    Counters& operator+=(const Counters& o);
    /** Field-wise difference (the high-water mark of `this`). */
    Counters operator-(const Counters& o) const;
};

Counters&
Counters::operator+=(const Counters& o)
{
    bytesMoved += o.bytesMoved;
    posmapBytes += o.posmapBytes;
    treeAcc += o.treeAcc;
    macChecks += o.macChecks;
    groupRemaps += o.groupRemaps;
    plbHits += o.plbHits;
    plbMisses += o.plbMisses;
    pathReads += o.pathReads;
    pathWrites += o.pathWrites;
    onlineReads += o.onlineReads;
    onlineBlocks += o.onlineBlocks;
    evictPaths += o.evictPaths;
    reshuffles += o.reshuffles;
    stashPeak = std::max(stashPeak, o.stashPeak);
    return *this;
}

Counters
Counters::operator-(const Counters& o) const
{
    Counters d;
    d.bytesMoved = bytesMoved - o.bytesMoved;
    d.posmapBytes = posmapBytes - o.posmapBytes;
    d.treeAcc = treeAcc - o.treeAcc;
    d.macChecks = macChecks - o.macChecks;
    d.groupRemaps = groupRemaps - o.groupRemaps;
    d.plbHits = plbHits - o.plbHits;
    d.plbMisses = plbMisses - o.plbMisses;
    d.pathReads = pathReads - o.pathReads;
    d.pathWrites = pathWrites - o.pathWrites;
    d.onlineReads = onlineReads - o.onlineReads;
    d.onlineBlocks = onlineBlocks - o.onlineBlocks;
    d.evictPaths = evictPaths - o.evictPaths;
    d.reshuffles = reshuffles - o.reshuffles;
    d.stashPeak = stashPeak;
    return d;
}

UnifiedFrontend&
unified(OramSystem& sys)
{
    return dynamic_cast<UnifiedFrontend&>(sys.frontend());
}

Counters
readCounters(OramSystem& sys)
{
    UnifiedFrontend& uf = unified(sys);
    const StatSet& f = uf.stats();
    const StatSet& p = uf.plb().stats();
    const StatSet& b = uf.backend().stats();
    Counters c;
    c.bytesMoved = f.get("bytesMoved");
    c.posmapBytes = f.get("posmapBytes");
    c.treeAcc = f.get("backendAccesses");
    c.macChecks = f.get("macChecks");
    c.groupRemaps = f.get("groupRemaps");
    c.plbHits = p.get("hits");
    c.plbMisses = p.get("misses");
    c.pathReads = b.get("pathReads");
    c.pathWrites = b.get("pathWrites");
    c.onlineReads = b.get("onlineReads");
    c.onlineBlocks = b.get("onlineBlocks");
    c.evictPaths = b.get("evictPaths");
    c.reshuffles = b.get("reshuffles");
    c.stashPeak = uf.backend().stash().stats().get("peakOccupancy");
    return c;
}

OramParams
treeParams(OramSystem& sys)
{
    return unified(sys).backend().params();
}

void
reportCoreOram(Report& report, const Counters& d, double requests,
               const OramParams& params)
{
    const double tree = double(d.treeAcc);
    report.metric("core.plb_hit_rate",
                  double(d.plbHits) / double(d.plbHits + d.plbMisses),
                  "ratio");
    report.metric("core.tree_acc_per_req", tree / requests, "count");
    report.metric("core.posmap_byte_share",
                  double(d.posmapBytes) / double(d.bytesMoved), "ratio");
    report.metric("core.group_remaps_per_req",
                  double(d.groupRemaps) / requests, "count");
    report.metric("core.mac_checks_per_req", double(d.macChecks) / requests,
                  "count");
    // Whole-path reads: Path's per-access read, Ring's EvictPath read.
    report.metric("oram.path_reads_per_req",
                  double(d.pathReads + d.evictPaths) / requests, "count");
    // Path reads (L+1)*Z blocks per access; Ring counts its online reads.
    const bool ring = d.onlineReads != 0;
    report.metric("oram.online_blocks_per_acc",
                  ring ? double(d.onlineBlocks) / tree
                       : double(params.levels + 1) * params.z,
                  "count");
    // Paths evicted per tree access: Path evicts the path it read on
    // every access (1.0); Ring runs one EvictPath every A accesses.
    report.metric("oram.evict_paths_per_acc",
                  double(d.pathWrites + d.evictPaths) / tree, "count");
    report.metric("oram.reshuffles_per_acc", double(d.reshuffles) / tree,
                  "count");
    report.metric("oram.stash_peak_blocks", double(d.stashPeak), "count");
}

/** Issues spans of requests and checks every returned value. */
class Client {
  public:
    Client(Shadow& shadow, Report& report)
        : shadow_(shadow), report_(report), payload_(kSpan),
          reqs_(kSpan), results_(kSpan), expect_(kSpan)
    {
    }

    /** Stage requests [first, first + n) of `stream` (n <= kSpan). */
    void
    stage(const std::vector<Req>& stream, u64 first, u64 n)
    {
        n_ = n;
        for (u64 i = 0; i < n; ++i) {
            const Req& r = stream[first + i];
            stageOne(i, r.addr, r.isWrite, true);
        }
    }

    /** Stage one bulk-load write of version 0 at slot i. */
    void
    stageLoad(u64 i, u64 addr)
    {
        stageOne(i, addr, true, false);
    }
    void setCount(u64 n) { n_ = n; }

    /** submit() the staged span; returns its wall time in seconds. */
    double
    submit(OramSystem& sys)
    {
        const Clock::time_point t0 = Clock::now();
        sys.submit(reqs_.data(), results_.data(), n_);
        const Clock::time_point t1 = Clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    }

    /** Compare every result of the span with the shadow copy. */
    void
    verify()
    {
        report_.attempted += n_;
        for (u64 i = 0; i < n_; ++i)
            if (!shadow_.check(reqs_[i].addr, expect_[i],
                               results_[i].data)) {
                if (report_.wrong++ == 0)
                    report_.note("WRONG value at address " +
                                 std::to_string(reqs_[i].addr));
            }
    }

  private:
    void
    stageOne(u64 i, u64 addr, bool is_write, bool bump)
    {
        AccessRequest& q = reqs_[i];
        q.addr = addr;
        q.isWrite = is_write;
        q.writeData = nullptr;
        q.prefetchOnly = false;
        if (is_write) {
            expect_[i] = bump ? shadow_.bump(addr) : 0;
            shadow_.image(addr, expect_[i], payload_[i]);
            q.writeData = &payload_[i];
        } else {
            expect_[i] = shadow_.version(addr);
        }
    }

    Shadow& shadow_;
    Report& report_;
    std::vector<std::vector<u8>> payload_;
    std::vector<AccessRequest> reqs_;
    std::vector<AccessResult> results_;
    std::vector<u64> expect_;
    u64 n_ = 0;
};

/** Construct a system and bulk-load every block (version 0). */
std::unique_ptr<OramSystem>
setUp(const OramSystemConfig& cfg, Client& drv, u64 blocks, Tracer& tr,
      double& ctor_s)
{
    Scope setup(tr, "setup");
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<OramSystem> sys;
    {
        Scope s(tr, "core.ctor", setup.id());
        sys = std::make_unique<OramSystem>(
            SchemeId::PlbIntegrityCompressed, cfg);
    }
    ctor_s = std::chrono::duration<double>(Clock::now() - t0).count();
    Scope load(tr, "core.bulk_load", setup.id());
    for (u64 a = 0; a < blocks; a += kSpan) {
        const u64 n = std::min(kSpan, blocks - a);
        for (u64 i = 0; i < n; ++i)
            drv.stageLoad(i, a + i);
        drv.setCount(n);
        drv.submit(*sys);
    }
    return sys;
}

/** Re-read a seeded sample (plus the segment's last writes) and check. */
void
verifySample(OramSystem& sys, Client& drv, const std::vector<Req>& stream,
             u64 first, u64 count, u64 blocks, u64 seed)
{
    std::vector<Req> sample;
    Xoshiro256 rng(splitmix64Mix(seed ^ first ^ 0x5a3b1e));
    for (u64 i = 0; i < 1024; ++i)
        sample.push_back({rng.below(blocks), false});
    for (u64 i = first + count; i-- > first && sample.size() < 2048;)
        if (stream[i].isWrite)
            sample.push_back({stream[i].addr, false});
    for (u64 at = 0; at < sample.size(); at += kSpan) {
        drv.stage(sample, at, std::min<u64>(kSpan, sample.size() - at));
        drv.submit(sys);
        drv.verify();
    }
}

} // namespace

void
runEngine(const Options& opt, Report& report)
{
    const bool ring = opt.workload == "ring-zipf";
    const EngineSpec spec =
        ring ? EngineSpec{BucketSchemeKind::Ring, Dist::Zipf, 5,
                          u64{16} << 20, 35000}
             : EngineSpec{BucketSchemeKind::Path, Dist::Uniform, 25,
                          u64{16} << 20, 25000};
    const OramSystemConfig cfg = pinnedConfig(
        spec.scheme, StorageBackendKind::Flat, spec.capacityBytes,
        kSystemSeed);
    const u64 blocks = spec.capacityBytes / cfg.blockBytes;

    // Fixed request count: whole blocks of whole spans, split evenly
    // across the rounds.
    u64 n = opt.requests != 0 ? opt.requests : spec.nominalRate * opt.seconds;
    const u64 spansPerBlock = std::max<u64>(1, n / (kBlocks * kSpan));
    n = spansPerBlock * kSpan * kBlocks;
    const std::vector<Req> stream =
        makeStream(opt.seed, n, blocks, spec.dist, spec.writePct);
    report.info("stream_digest", streamDigest(stream));

    Tracer tr(opt.trace);
    Shadow shadow(blocks, cfg.blockBytes);
    Client drv(shadow, report);

    // kRounds rounds of: set-up (timed; median is setup_s) -> timed
    // segment of kBlocks / kRounds blocks; then the restart below.
    // Spreading the timed phase over the whole run keeps one burst of
    // machine contention from landing on a single metric. In the traced
    // run odd blocks are traced and even blocks are not, so the tracing
    // overhead is an interleaved A/B inside one process.
    std::vector<double> setupS, ctorS, sealS, openS, latUs;
    std::vector<double> rateUntraced, rateTraced;
    std::vector<double> fitX, fitY; // traced spans: [1, tree, evict, resh]
    Counters delta;
    double peakRss = 0;
    u64 allocated = 0, snapBytes = 0;
    OramParams params;
    const u64 perRound = n / kRounds;
    const std::string snap = opt.dir + "/engine.ckpt";
    for (u64 round = 0; round < kRounds; ++round) {
        shadow = Shadow(blocks, cfg.blockBytes);
        const Clock::time_point t0 = Clock::now();
        double ctor = 0;
        std::unique_ptr<OramSystem> sys = setUp(cfg, drv, blocks, tr, ctor);
        setupS.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        ctorS.push_back(ctor);

        const Counters before = readCounters(*sys);
        const int timed = tr.begin("phase.timed");
        u64 next = round * perRound;
        for (u64 b = 0; b < kBlocks / kRounds; ++b) {
            const bool traced = opt.trace && (b % 2 == 1);
            const int blk = traced ? tr.begin("block", timed) : -1;
            double busy = 0;
            for (u64 s = 0; s < spansPerBlock; ++s, next += kSpan) {
                drv.stage(stream, next, kSpan);
                double d;
                if (traced) {
                    const Counters c0 = readCounters(*sys);
                    const int id = tr.begin("core.submit", blk);
                    d = drv.submit(*sys);
                    tr.end(id);
                    const Counters c1 = readCounters(*sys);
                    Span& sp = tr.at(id);
                    sp.delta[0] = c1.treeAcc - c0.treeAcc;
                    sp.delta[1] = c1.plbMisses - c0.plbMisses;
                    sp.delta[2] = c1.evictPaths - c0.evictPaths;
                    sp.delta[3] = c1.reshuffles - c0.reshuffles;
                    fitX.insert(fitX.end(),
                                {1.0, double(sp.delta[0]),
                                 double(sp.delta[2]), double(sp.delta[3])});
                    fitY.push_back(sp.endUs - sp.startUs);
                } else {
                    d = drv.submit(*sys);
                    // Every request of a span completes when it returns.
                    latUs.insert(latUs.end(), kSpan, d * 1e6);
                }
                busy += d;
                drv.verify();
            }
            tr.end(blk);
            (traced ? rateTraced : rateUntraced)
                .push_back(double(spansPerBlock * kSpan) / busy);
        }
        tr.end(timed);
        delta += readCounters(*sys) - before;
        allocated = sys->storage().allocatedBytes();
        params = treeParams(*sys);
        if (round == 0)
            peakRss = peakRssMb(); // set-up + serving, before any restart

        if (round + 1 < kRounds)
            continue;

        // Restart, after the last round: seal a Full snapshot, then
        // drop and reopen the system kRounds times (median is
        // checkpoint.open_s),
        // re-reading a sample through each reopened system.
        {
            Scope s(tr, "checkpoint.seal");
            const Clock::time_point c0 = Clock::now();
            sys->checkpointTo(snap, CheckpointScope::Full);
            sealS.push_back(
                std::chrono::duration<double>(Clock::now() - c0).count());
        }
        snapBytes = dirBytes(opt.dir, "engine.ckpt");
        for (u64 k = 0; k < kRounds; ++k) {
            sys.reset();
            {
                Scope s(tr, "checkpoint.open");
                const Clock::time_point o0 = Clock::now();
                sys = OramSystem::open(SchemeId::PlbIntegrityCompressed, cfg,
                                       snap);
                openS.push_back(std::chrono::duration<double>(
                                    Clock::now() - o0)
                                    .count());
            }
            verifySample(*sys, drv, stream, round * perRound, perRound,
                         blocks, opt.seed ^ k);
        }
    }

    const double reqs = double(n);
    const double blockBytes = double(cfg.blockBytes);
    const double capacity = double(spec.capacityBytes);

    // ---- end-to-end metrics
    report.metric("setup_s", median(setupS), "s");
    report.metric("acc_per_s", median(rateUntraced), "1/s");
    {
        std::string rates = "untraced block rates (1/s):";
        for (double r : rateUntraced)
            rates += " " + std::to_string(static_cast<u64>(r));
        report.note(rates);
    }
    report.metric("lat_p50_us", percentile(latUs, 50), "us");
    report.metric("lat_p99_us", percentile(latUs, 99), "us");
    report.metric("bw_amp", double(delta.bytesMoved) / (reqs * blockBytes),
                  "ratio");
    report.metric("space_amp", double(allocated) / capacity, "ratio");
    report.metric("peak_rss_mb", peakRss, "MiB");
    report.note("workload " + opt.workload + ": " + std::to_string(n) +
                " requests (" + std::to_string(kBlocks) + " blocks of " +
                std::to_string(spansPerBlock) + " spans of " +
                std::to_string(kSpan) + "), latency samples " +
                std::to_string(latUs.size()) +
                " (span-level, untraced blocks), p90 " +
                std::to_string(percentile(latUs, 90)) + " us, open() " +
                std::to_string(median(openS)) + " s");

    if (!opt.trace)
        return;

    // ---- per-layer metrics (traced run)
    reportCoreOram(report, delta, reqs, params);
    // Span time = c0 + a*tree accesses + b*EvictPaths + c*reshuffles.
    // PLB misses are not a separate regressor: each one is exactly one
    // extra (PosMap) tree access, so it is collinear with tree accesses.
    const std::vector<double> coef = leastSquares(fitX, fitY, 4);
    report.metric("oram.us_per_tree_acc", coef[1], "us");
    // On Path, the eviction pass is part of every tree access and an
    // EvictPath-equivalent (whole-path read + write) costs one access.
    report.metric("oram.us_per_evict_path", ring ? coef[2] : coef[1], "us");
    report.note("fit over " + std::to_string(fitY.size()) +
                " traced spans: c0=" + std::to_string(coef[0]) +
                " us, tree=" + std::to_string(coef[1]) +
                " us, evict=" + std::to_string(coef[2]) +
                " us, reshuffle=" + std::to_string(coef[3]) + " us");

    report.metric("crypto.aes_ctr_mb_s", probeAesCtr(tr, params.pathBytes()),
                  "MB/s");
    report.metric("crypto.sha3_mb_s", probeSha3(tr, snapBytes), "MB/s");
    report.metric("mem.allocated_mb", double(allocated) / (1 << 20), "MiB");

    const ShardProbe sp = probeShard(tr, opt.dir + "/probe-shard",
                                     spec.scheme, stream, report);
    report.metric("shard.ctor_s", sp.ctorS, "s");
    report.metric("shard.submit_call_us", sp.submitCallUs, "us");
    report.metric("journal.replayed_records", double(sp.replayed), "count");
    if (sp.replayed != sp.requests) {
        ++report.wrong;
        report.note("open() replayed " + std::to_string(sp.replayed) +
                    " journal records of " + std::to_string(sp.requests));
    }

    const JournalProbe jp =
        probeJournal(tr, opt.dir + "/probe-journal", stream, cfg.blockBytes);
    report.metric("journal.bytes_per_req",
                  double(jp.bytes) / double(jp.records), "B");
    report.metric("journal.append_us", jp.appendUs, "us");
    report.metric("journal.sync_us", jp.syncUs, "us");
    if (jp.replayed != jp.records) {
        ++report.wrong;
        report.note("journal probe replayed " + std::to_string(jp.replayed) +
                    " of " + std::to_string(jp.records) + " records");
    }
    report.metric("checkpoint.seal_s", median(sealS), "s");
    report.metric("checkpoint.open_s", median(openS), "s");
    report.metric("checkpoint.snapshot_mb", double(snapBytes) / (1 << 20),
                  "MiB");
    report.metric("trace.overhead_pct",
                  (median(rateUntraced) / median(rateTraced) - 1.0) * 100.0,
                  "%");
    report.note("core.ctor median " + std::to_string(median(ctorS)) + " s");
    tr.summarize(report);
    if (!opt.spansOut.empty())
        tr.write(opt.spansOut);
}

} // namespace perfbench
