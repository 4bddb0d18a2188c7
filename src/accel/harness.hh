/**
 * @file
 * Shared evaluation harness (paper Sec 7.1.1).
 *
 * Implements the fairness rules: every design is evaluated with the
 * same engine and component library, and because matrix-multiplication
 * accelerators treat operands interchangeably, designs may swap
 * operands and report the better result (e.g. STC swaps when B is the
 * structured-sparse side).
 */

#ifndef HIGHLIGHT_ACCEL_HARNESS_HH
#define HIGHLIGHT_ACCEL_HARNESS_HH

#include <memory>
#include <vector>

#include "accel/accelerator.hh"

namespace highlight
{

/**
 * Evaluate with operand swapping: runs the workload as-is and swapped
 * (when either is supported) and returns the lower-EDP result.
 */
EvalResult evaluateBest(const Accelerator &accel, const GemmWorkload &w);

/** One evaluation job: a design applied to a workload. */
struct EvalJob
{
    const Accelerator *design = nullptr;
    GemmWorkload workload;
};

/** Result of a full suite evaluation for one design. */
struct SuiteResult
{
    std::string design;
    std::vector<EvalResult> results; // one per workload, may be unsup.

    /** Geomean EDP across supported workloads; fatal if none. */
    double geomeanEdp() const;
};

/**
 * Evaluate a set of designs across a workload suite (with swapping),
 * serially; results are in (design, workload) input order.
 */
std::vector<SuiteResult> evaluateSuite(
    const std::vector<const Accelerator *> &designs,
    const std::vector<GemmWorkload> &suite);

/**
 * The standard five-design lineup of the paper's evaluation:
 * TC, STC, S2TA, DSTC, HighLight (owned by the returned vector).
 */
std::vector<std::unique_ptr<Accelerator>> standardDesigns();

} // namespace highlight

#endif // HIGHLIGHT_ACCEL_HARNESS_HH
