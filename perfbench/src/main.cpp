/**
 * @file
 * Benchmark entry point: runs one workload and prints its metrics as
 * one JSON object on the last line of stdout (context goes to stderr).
 *
 *   perfbench --workload path-uniform|ring-zipf --seed N
 *             --seconds S --trace 0|1 --dir SCRATCH
 *             [--requests N] [--spans FILE]
 *
 * Exit status: 0 when every returned value matched the shadow copy,
 * 1 on a wrong value, 2 on an error or bad usage.
 */
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            opt.seconds = static_cast<u32>(std::strtoul(v.c_str(), nullptr,
                                                        10));
        else if (k == "--trace")
            opt.trace = v == "1";
        else if (k == "--dir")
            opt.dir = v;
        else if (k == "--requests")
            opt.requests = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--spans")
            opt.spansOut = v;
        else {
            std::cerr << "unknown option " << k << '\n';
            return 2;
        }
    }
    if ((opt.workload != "path-uniform" && opt.workload != "ring-zipf") ||
        opt.dir.empty() || opt.seconds == 0) {
        std::cerr << "usage: perfbench --workload path-uniform|ring-zipf "
                     "--seed N --seconds S --trace 0|1 --dir SCRATCH\n";
        return 2;
    }
    nowUs(); // fix the span time origin
    Report report;
    try {
        freshDir(opt.dir);
        runEngine(opt, report);
        removeDir(opt.dir);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
    std::cout << report.json() << std::endl;
    return report.wrong == 0 ? 0 : 1;
}
