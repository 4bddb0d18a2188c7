/**
 * @file
 * HSS design-space exploration (paper Sec 5): compare hardware
 * configurations by rank count and per-rank G:H ranges, reporting the
 * supported degrees and the muxing sparsity tax, then compose density
 * sets Fig 1 style.
 */

#include <iostream>

#include "common/table.hh"
#include "core/explorer.hh"

int
main()
{
    using namespace highlight;

    DesignSpaceExplorer explorer;

    // Fig 1: composing two sets of density degrees by multiplication.
    std::cout << "Fig 1: composing S0 = {1, 1/2} with "
                 "S1 = {1, 3/4, 1/2}:\n  ";
    for (double d : composeDensitySets({1.0, 0.5}, {1.0, 0.75, 0.5}))
        std::cout << d << " ";
    std::cout << "\n\n";

    // Candidate hardware configurations, analyzed as one batch on the
    // thread pool (results come back in input order).
    const std::vector<HssDesignConfig> configs = {
        DesignSpaceExplorer::designS(),
        DesignSpaceExplorer::designSS(),
        {"HighLight (4:{4-8} x 2:{2-4})", highlightWeightSupport(),
         128, 4},
        {"three-rank (2:{2-4})^3",
         {{2, 2, 4}, {2, 2, 4}, {2, 2, 4}},
         2,
         1},
    };
    const auto reports = explorer.analyzeMany(configs);

    TextTable t("HSS hardware candidates");
    t.setHeader({"design", "#ranks", "#degrees", "sparsest", "mux2",
                 "mux area (um^2)"});
    for (const auto &r : reports) {
        t.addRow({r.name, std::to_string(r.num_ranks),
                  std::to_string(r.degrees.size()),
                  TextTable::fmt(
                      100.0 * (1.0 - r.degrees.back().density), 1) +
                      "%",
                  std::to_string(r.total_mux2),
                  TextTable::fmt(r.mux_area_um2, 0)});
    }
    t.print(std::cout);

    // Degree detail for the HighLight configuration.
    const auto &hl = reports[2];
    std::cout << "\nHighLight's supported operand-A degrees "
                 "(Sec 5.4 / Table 3):\n";
    TextTable d;
    d.setHeader({"spec", "density", "sparsity %", "norm. latency"});
    for (const auto &deg : hl.degrees) {
        d.addRow({deg.spec.str(), TextTable::fmt(deg.density, 4),
                  TextTable::fmt(100.0 * (1.0 - deg.density), 1),
                  TextTable::fmt(deg.density, 4)});
    }
    d.print(std::cout);
    return 0;
}
