#include "checks.hpp"

#include "util/strings.hpp"

namespace escape::e2e {

namespace {

unsigned long long ull(std::uint64_t v) { return static_cast<unsigned long long>(v); }

}  // namespace

Failures check_chain_fwd(const std::vector<ChainCount>& chains) {
  Failures out;
  if (chains.empty()) out.push_back("chain_fwd: no chain was measured");
  for (const auto& c : chains) {
    if (c.sent == 0) out.push_back(strings::format("%s: sent no packets", c.chain.c_str()));
    if (c.delivered != c.sent) {
      out.push_back(strings::format("%s: %llu of %llu packets delivered", c.chain.c_str(),
                                    ull(c.delivered), ull(c.sent)));
    }
    if (c.click.empty()) out.push_back(c.chain + ": no Click counters read");
    for (const auto& [name, value] : c.click) {
      if (value != c.sent) {
        out.push_back(strings::format("%s: %s = %llu, expected %llu", c.chain.c_str(),
                                      name.c_str(), ull(value), ull(c.sent)));
      }
    }
  }
  return out;
}

std::int64_t Accounting::unattributed() const {
  return static_cast<std::int64_t>(sent) -
         static_cast<std::int64_t>(delivered + link_drops + packet_ins + click_drops);
}

Failures check_fattree_mix(const Accounting& acc, std::uint64_t unattributed_limit) {
  Failures out;
  if (acc.sent == 0) out.push_back("fattree_mix: sent no packets");
  if (acc.delivered == 0) out.push_back("fattree_mix: delivered no packets");
  const std::int64_t rest = acc.unattributed();
  if (rest < 0) {
    out.push_back(strings::format(
        "fattree_mix: %lld packets counted twice (sent %llu < delivered %llu + link drops %llu + "
        "packet-ins %llu + click drops %llu)",
        static_cast<long long>(-rest), ull(acc.sent), ull(acc.delivered), ull(acc.link_drops),
        ull(acc.packet_ins), ull(acc.click_drops)));
  } else if (static_cast<std::uint64_t>(rest) > unattributed_limit) {
    out.push_back(strings::format("fattree_mix: %lld of %llu packets unaccounted for (limit %llu)",
                                  static_cast<long long>(rest), ull(acc.sent),
                                  ull(unattributed_limit)));
  }
  return out;
}

Failures check_digest(std::uint64_t two_threads, std::uint64_t one_thread) {
  if (two_threads == one_thread) return {};
  return {strings::format("order digest at 2 threads %016llx != at 1 thread %016llx",
                          ull(two_threads), ull(one_thread))};
}

Failures check_teardown(const TeardownState& end) {
  Failures out;
  if (end.chains_installed != 0) {
    out.push_back(strings::format("%zu steering chains still installed", end.chains_installed));
  }
  if (end.chains_deployed != 0) {
    out.push_back(strings::format("%zu chains still deployed", end.chains_deployed));
  }
  for (const auto& d : end.view_diffs) out.push_back("resource view not restored: " + d);
  return out;
}

Failures check_chain_churn(std::uint64_t probes_sent, std::uint64_t probes_delivered,
                           const TeardownState& end) {
  Failures out = check_teardown(end);
  if (probes_sent == 0) out.push_back("chain_churn: sent no probes");
  if (probes_delivered != probes_sent) {
    out.push_back(strings::format("chain_churn: %llu of %llu probes delivered",
                                  ull(probes_delivered), ull(probes_sent)));
  }
  return out;
}

}  // namespace escape::e2e
