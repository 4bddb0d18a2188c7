#include "runtime/eval_cache.hh"

#include <iomanip>
#include <sstream>

namespace highlight
{

namespace
{

void
appendOperand(std::ostringstream &oss, const OperandSparsity &s)
{
    switch (s.kind) {
      case PatternKind::Dense:
        oss << "D";
        break;
      case PatternKind::Unstructured:
        // max_digits10 so distinct densities can never collide.
        oss << "U" << std::setprecision(17) << s.density;
        break;
      case PatternKind::Hss:
        oss << "H" << s.hss.str();
        break;
    }
}

} // namespace

std::string
EvalCache::keyOf(const std::string &design, const GemmWorkload &w)
{
    std::ostringstream oss;
    oss << design << "|" << w.m << "x" << w.k << "x" << w.n << "|";
    appendOperand(oss, w.a);
    oss << "|";
    appendOperand(oss, w.b);
    return oss.str();
}

EvalResult
EvalCache::evaluate(const Accelerator &accel, const GemmWorkload &w)
{
    const std::string key = keyOf(accel.name(), w);
    EvalResult r;
    if (lookup(key, w.name, &r))
        return r;
    r = evaluateBest(accel, w);
    insert(key, r);
    return r;
}

bool
EvalCache::lookup(const std::string &key, const std::string &workload_name,
                  EvalResult *out)
{
    const auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    *out = it->second;
    out->workload = workload_name;
    return true;
}

void
EvalCache::insert(const std::string &key, const EvalResult &r)
{
    if (map_.emplace(key, r).second)
        ++stats_.insertions;
}

} // namespace highlight
