#include "core/frontier_io.hh"

#include <fstream>
#include <iomanip>

#include "core/pareto.hh"

namespace highlight
{

bool
writeFrontierJson(const std::string &path,
                  const std::vector<FrontierEntry> &frontier)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << std::setprecision(17);
    out << "[\n";
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        const FrontierEntry &f = frontier[i];
        out << "  {\"model\": " << jsonQuote(f.model)
            << ", \"design\": " << jsonQuote(f.design)
            << ", \"accuracy_loss\": " << f.accuracy_loss
            << ", \"norm_edp\": " << f.norm_edp << "}"
            << (i + 1 < frontier.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return static_cast<bool>(out);
}

std::vector<FrontierEntry>
frontierOf(const std::vector<FrontierEntry> &points)
{
    // Group per model, preserving first-appearance model order and
    // within-model input order (model-major sweep, candidate order
    // within a model).
    std::vector<std::string> model_order;
    for (const auto &p : points) {
        bool seen = false;
        for (const auto &m : model_order)
            seen |= m == p.model;
        if (!seen)
            model_order.push_back(p.model);
    }

    std::vector<FrontierEntry> frontier;
    for (const auto &model : model_order) {
        std::vector<ParetoPoint> model_points;
        std::vector<const FrontierEntry *> model_entries;
        for (const auto &p : points) {
            if (p.model != model)
                continue;
            model_points.push_back(
                {p.accuracy_loss, p.norm_edp, p.design});
            model_entries.push_back(&p);
        }
        const auto mask = frontierMask(model_points);
        for (std::size_t i = 0; i < model_entries.size(); ++i) {
            if (mask[i])
                frontier.push_back(*model_entries[i]);
        }
    }
    return frontier;
}

} // namespace highlight
