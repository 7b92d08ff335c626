/**
 * @file
 * Shared pieces of the repository benchmark: options, the seeded
 * request stream, the shadow copy that checks every returned value,
 * the in-memory span recorder of the traced run, and small statistics
 * helpers. See perfbench/NOTES.md for what each workload measures.
 */
#ifndef FRORAM_PERFBENCH_COMMON_HPP
#define FRORAM_PERFBENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/oram_system.hpp"
#include "journal/request_journal.hpp"
#include "util/common.hpp"

namespace perfbench {

using froram::u64;
using froram::u32;
using froram::u8;
using Clock = std::chrono::steady_clock;

/** Microseconds since the first call (one process-wide origin). */
double nowUs();

/** Command-line options of one run. */
struct Options {
    std::string workload;
    u64 seed = 1;
    u32 seconds = 10;
    bool trace = false;
    /** Scratch directory for backing files, snapshots and journals. */
    std::string dir;
    /** Timed-phase request count; 0 = the workload's nominal rate times
     *  `seconds`. Fixed per (workload, seconds), never clock-derived. */
    u64 requests = 0;
    /** Where the traced run writes its spans ("" = no file). */
    std::string spansOut;
};

/** Metrics and outcome of one run, printed as the last stdout line. */
class Report {
  public:
    void metric(const std::string& name, double value,
                const std::string& unit)
    {
        metrics_.push_back({name, {value, unit}});
    }
    /** Free-form context (sample counts, sizes) printed to stderr. */
    void note(const std::string& line);

    u64 attempted = 0;
    u64 failed = 0; ///< typed request failures and exceptions
    u64 wrong = 0;  ///< values that disagreed with the shadow copy

    /** Extra string context carried in the output JSON ("info"). */
    void info(const std::string& key, const std::string& value)
    {
        info_.push_back({key, value});
    }

    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::string>> info_;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

/** One request of the pre-generated stream. */
struct Req {
    u64 addr = 0;
    bool isWrite = false;
};

/** How a workload draws its addresses. */
enum class Dist { Uniform, Zipf };

/**
 * Generate `n` requests over `blocks` addresses from `seed`: uniform,
 * or Zipf(0.99) with rank r at address r. The stream depends only on
 * its arguments, never on timing.
 */
std::vector<Req> makeStream(u64 seed, u64 n, u64 blocks, Dist dist,
                            u32 write_pct);

/** FNV-1a digest of a request stream, as hex (determinism self-test). */
std::string streamDigest(const std::vector<Req>& stream);

/**
 * Shadow copy of the store: the version of every address's last write.
 * Payloads are a pure function of (address, version), so a returned
 * value is checked by regenerating the image it must equal.
 */
class Shadow {
  public:
    Shadow(u64 blocks, u64 block_bytes)
        : version_(blocks, 0), blockBytes_(block_bytes)
    {
    }
    u64 version(u64 addr) const { return version_[addr]; }
    /** Record a write of `addr`; returns its new version. */
    u64 bump(u64 addr) { return version_[addr] = nextVersion_++; }
    /** Payload of (addr, version) into `out`. */
    void image(u64 addr, u64 version, std::vector<u8>& out) const;
    /** True when `data` is the payload of (addr, version). */
    bool check(u64 addr, u64 version, const std::vector<u8>& data) const;

  private:
    std::vector<u64> version_;
    u64 blockBytes_;
    u64 nextVersion_ = 1;
    mutable std::vector<u8> expect_;
};

/** A traced interval at one layer boundary. */
struct Span {
    const char* name = "";
    int parent = -1; ///< index of the enclosing span, -1 = root
    double startUs = 0;
    double endUs = 0;
    /** Public counter deltas across the span (meaning per workload:
     *  tree accesses, PLB misses, EvictPaths, reshuffles). */
    u64 delta[4] = {0, 0, 0, 0};
};

/** In-memory span recorder of the traced run. */
class Tracer {
  public:
    explicit Tracer(bool on) : on_(on) {}
    /** Open a span; returns its index (-1 when tracing is off). */
    int begin(const char* name, int parent = -1);
    void end(int id);
    Span& at(int id) { return spans_[static_cast<size_t>(id)]; }
    /** Per-name count, total and self time (duration minus the part
     *  its child spans cover), printed through the report. */
    void summarize(Report& report) const;
    /** Write every span as one JSON line per span. */
    void write(const std::string& path) const;

  private:
    bool on_;
    std::vector<Span> spans_;
};

/** RAII span for setup/probe phases (no counter deltas). */
class Scope {
  public:
    Scope(Tracer& t, const char* name, int parent = -1)
        : t_(t), id_(t.begin(name, parent))
    {
    }
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

  private:
    Tracer& t_;
    int id_;
};

/** Median of a sample (copies). 0 for an empty sample. */
double median(std::vector<double> v);
/** p-th percentile (0..100), nearest-rank on the sorted sample. */
double percentile(std::vector<double> v, double p);

/**
 * Ordinary least squares of y on the columns of x (row-major, k
 * columns). Columns with no variance get coefficient 0. Returns the k
 * coefficients.
 */
std::vector<double> leastSquares(const std::vector<double>& x,
                                 const std::vector<double>& y, size_t k);

/** Peak resident set of this process in MiB (VmHWM). */
double peakRssMb();

/** Sum of regular-file sizes in `dir` whose name contains `part`
 *  ("" = every file). */
u64 dirBytes(const std::string& dir, const std::string& part = "");

/** Fresh empty directory (removes whatever was there). */
void freshDir(const std::string& dir);
void removeDir(const std::string& dir);

/** The paper's full Freecursive configuration every workload pins. */
froram::OramSystemConfig pinnedConfig(froram::BucketSchemeKind scheme,
                                      froram::StorageBackendKind backend,
                                      u64 capacity_bytes, u64 seed);

/** Run the path-uniform or ring-zipf workload (engine.cpp). */
void runEngine(const Options& opt, Report& report);

/** @name Layer probes of the traced run (probes.cpp) @{ */
/** crypto.aes_ctr_mb_s: keystream XOR over `span_bytes` spans. */
double probeAesCtr(Tracer& t, u64 span_bytes);
/** crypto.sha3_mb_s: Sha3_224 over a `bytes`-sized buffer. */
double probeSha3(Tracer& t, u64 bytes);
/** journal.*: a RequestJournal fed `stream`
 *  under the journalPolicy() group-commit rule in `dir`. */
struct JournalProbe {
    double appendUs = 0;  ///< median append() call
    double syncUs = 0;    ///< median sync() call
    u64 records = 0;
    u64 bytes = 0;        ///< segment bytes on disk
    u64 replayed = 0;     ///< records replay() delivered
};
JournalProbe probeJournal(Tracer& t, const std::string& dir,
                          const std::vector<Req>& stream, u64 block_bytes);
/** shard.*: a small journaled mmap service in the workload's bucket
 *  scheme, driven with `stream` (addresses folded into its capacity),
 *  dropped without a checkpoint and reopened. Wrong values and failed
 *  requests are counted into `report`. */
struct ShardProbe {
    double ctorS = 0;
    double submitCallUs = 0;
    u64 requests = 0;
    u64 replayed = 0; ///< records open() replayed (must equal requests)
};
ShardProbe probeShard(Tracer& t, const std::string& dir,
                      froram::BucketSchemeKind scheme,
                      const std::vector<Req>& stream, Report& report);
/** @} */

/** The journal group-commit policy of the shard and journal probes. */
froram::JournalConfig journalPolicy();

} // namespace perfbench

#endif // FRORAM_PERFBENCH_COMMON_HPP
