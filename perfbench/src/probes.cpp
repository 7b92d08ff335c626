/**
 * @file
 * Layer probes of the traced run. Each drives one layer through its
 * public functions only, with spans around every call:
 *
 *   crypto   aesni::xorCtr (or the portable AesCtrCipher path) over
 *            path-sized spans; Sha3_224 over a snapshot-sized buffer
 *   journal  a RequestJournal fed the workload's record stream under
 *            the shard probe's group-commit policy, then replayed
 *   shard    a small journaled ShardedOramService (2 shards, MmapFile)
 *            in the workload's bucket scheme: constructor and submit()
 *            call cost, then a drop and open() whose journal replay must
 *            cover every request and whose reads are checked
 */
#include <memory>

#include "common.hpp"
#include "crypto/aes128.hpp"
#include "crypto/aesni.hpp"
#include "crypto/sha3.hpp"
#include "crypto/stream_cipher.hpp"
#include "shard/sharded_service.hpp"

namespace perfbench {

using namespace froram;

namespace {

double
seconds(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

double
probeAesCtr(Tracer& t, u64 span_bytes)
{
    Scope probe(t, "crypto.aes_ctr");
    constexpr u64 kTotal = u64{32} << 20; // bytes per repetition
    const u64 spans = std::max<u64>(1, kTotal / span_bytes);
    std::vector<u8> buf(span_bytes, 0x5c);
    u8 key[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
    const Aes128 aes(key);
    const AesCtrCipher portable(key);
    std::vector<double> rates;
    for (int rep = 0; rep < 5; ++rep) {
        const Clock::time_point t0 = Clock::now();
        for (u64 i = 0; i < spans; ++i) {
            const int id = t.begin("crypto.xor_ctr", probe.id());
            if (aesni::enabled())
                aesni::xorCtr(aes.roundKeyBytes(), i, rep, buf.data(),
                              buf.data(), buf.size());
            else
                portable.xorCryptBulkTo(i, rep, buf.data(), buf.data(),
                                        buf.size());
            t.end(id);
        }
        rates.push_back(double(spans * span_bytes) / 1e6 / seconds(t0));
    }
    return median(rates);
}

double
probeSha3(Tracer& t, u64 bytes)
{
    Scope probe(t, "crypto.sha3");
    // Snapshot-sized, capped so the probe stays short on large trees.
    std::vector<u8> buf(std::clamp<u64>(bytes, 1, u64{32} << 20), 0xa7);
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
        buf[0] = static_cast<u8>(rep);
        Scope s(t, "crypto.sha3_224", probe.id());
        const Clock::time_point t0 = Clock::now();
        const auto digest = Sha3_224::hash(buf.data(), buf.size());
        rates.push_back(double(buf.size()) / 1e6 / seconds(t0));
        buf[1] ^= digest[0]; // keep the digest live
    }
    return median(rates);
}

JournalProbe
probeJournal(Tracer& t, const std::string& dir,
             const std::vector<Req>& stream, u64 block_bytes)
{
    Scope probe(t, "journal.probe");
    freshDir(dir);
    const JournalConfig cfg = journalPolicy();
    JournalProbe out;
    std::vector<double> appendUs, syncUs;
    {
        RequestJournal j(dir, 0, cfg, RetryPolicy{}, nullptr,
                         /*reset=*/true);
        Shadow images(1, block_bytes);
        std::vector<u8> payload;
        const u64 n = std::min<u64>(stream.size(), 16384);
        for (u64 i = 0; i < n; ++i) {
            const Req& r = stream[i];
            if (r.isWrite)
                images.image(r.addr, i + 1, payload);
            const int id = t.begin("journal.append", probe.id());
            const Clock::time_point t0 = Clock::now();
            j.append(r.addr, r.isWrite, r.isWrite ? payload.data() : nullptr,
                     r.isWrite ? payload.size() : 0);
            appendUs.push_back(seconds(t0) * 1e6);
            t.end(id);
            // The shard worker's group-commit rule.
            if (j.unsyncedRecords() >= cfg.fsyncEveryRecords || j.syncDue()) {
                const int sid = t.begin("journal.sync", probe.id());
                const Clock::time_point s0 = Clock::now();
                j.sync();
                syncUs.push_back(seconds(s0) * 1e6);
                t.end(sid);
            }
        }
        j.sync();
        out.records = n;
        Scope s(t, "journal.replay", probe.id());
        j.replay(0, j.lastAppended(),
                 [&](const JournalRecord&) { ++out.replayed; });
    }
    out.bytes = dirBytes(dir, ".wal");
    out.appendUs = median(appendUs);
    out.syncUs = median(syncUs);
    removeDir(dir);
    return out;
}

ShardProbe
probeShard(Tracer& t, const std::string& dir, BucketSchemeKind scheme,
           const std::vector<Req>& stream, Report& report)
{
    Scope probe(t, "shard.probe");
    freshDir(dir);
    ShardedServiceConfig cfg;
    cfg.scheme = SchemeId::PlbIntegrityCompressed;
    cfg.base = pinnedConfig(scheme, StorageBackendKind::MmapFile,
                            u64{1} << 20, 0x5eed);
    cfg.numShards = 2;
    cfg.numWorkers = 2;
    cfg.directory = dir;
    cfg.supervision.checkpointIntervalMs = 0; // no timer-driven work
    cfg.supervision.journal = journalPolicy();
    ShardProbe out;
    std::unique_ptr<ShardedOramService> svc;
    {
        Scope s(t, "shard.ctor", probe.id());
        const Clock::time_point t0 = Clock::now();
        svc = std::make_unique<ShardedOramService>(cfg);
        out.ctorS = seconds(t0);
    }
    {
        // Seal the fresh service, so that open() below must replay
        // exactly the requests issued after this point.
        Scope s(t, "shard.checkpoint", probe.id());
        svc->checkpoint();
    }
    const u64 blocks = svc->numBlocks();
    Shadow shadow(blocks, cfg.base.blockBytes);
    std::vector<double> callUs;
    // The probe is not bulk-loaded: a never-written block reads as zeros.
    const std::vector<u8> zeros(cfg.base.blockBytes, 0);
    auto check = [&](const ShardedOramService::BatchResult& res,
                     const std::vector<u64>& version) {
        for (size_t i = 0; i < res.size(); ++i) {
            if (res[i].status != RequestStatus::Ok) {
                ++report.failed;
                continue;
            }
            const bool ok = version[i] == 0
                                ? res[i].result.data == zeros
                                : shadow.check(res[i].addr, version[i],
                                               res[i].result.data);
            if (!ok && report.wrong++ == 0)
                report.note("shard probe: WRONG value at address " +
                            std::to_string(res[i].addr));
        }
    };
    for (u64 b = 0; b < 256 && (b + 1) * 16 <= stream.size(); ++b) {
        std::vector<ShardRequest> batch(16);
        std::vector<u64> version(16);
        for (u64 i = 0; i < 16; ++i) {
            const Req& r = stream[b * 16 + i];
            batch[i].addr = r.addr % blocks;
            batch[i].isWrite = r.isWrite;
            if (r.isWrite) {
                version[i] = shadow.bump(batch[i].addr);
                shadow.image(batch[i].addr, version[i], batch[i].writeData);
            } else {
                version[i] = shadow.version(batch[i].addr);
            }
        }
        const int id = t.begin("shard.submit", probe.id());
        const Clock::time_point t0 = Clock::now();
        auto fut = svc->submit(std::move(batch));
        callUs.push_back(seconds(t0) * 1e6);
        t.end(id);
        check(fut.get(), version);
        out.requests += 16;
    }
    out.submitCallUs = median(callUs);

    // Restart without a checkpoint: open() replays the journal suffix.
    svc.reset();
    {
        Scope s(t, "shard.open", probe.id());
        svc = ShardedOramService::open(cfg);
    }
    for (u32 sh = 0; sh < svc->numShards(); ++sh)
        out.replayed += svc->shardReport(sh).lastReplayDepth;
    std::vector<ShardRequest> reread;
    std::vector<u64> version;
    for (u64 a = 0; a < blocks; a += 61) {
        reread.push_back({a, false, {}, 0});
        version.push_back(shadow.version(a));
    }
    check(svc->submit(std::move(reread)).get(), version);
    svc.reset();
    removeDir(dir);
    return out;
}

} // namespace perfbench
