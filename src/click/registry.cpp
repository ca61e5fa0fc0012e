// Registration of the standard element library.
#include "click/elements.hpp"
#include "click/flow.hpp"

namespace escape::click {

namespace {
template <typename T>
void reg(ElementRegistry& r, const char* name) {
  r.register_class(name, [] { return std::make_unique<T>(); });
}
}  // namespace

void register_standard_elements(ElementRegistry& registry) {
  reg<Discard>(registry, "Discard");
  reg<InfiniteSource>(registry, "InfiniteSource");
  reg<RatedSource>(registry, "RatedSource");
  reg<TimedSource>(registry, "TimedSource");
  reg<Counter>(registry, "Counter");
  reg<Print>(registry, "Print");
  reg<Tee>(registry, "Tee");
  reg<Switch>(registry, "Switch");
  reg<RoundRobinSwitch>(registry, "RoundRobinSwitch");
  reg<Paint>(registry, "Paint");
  reg<PaintSwitch>(registry, "PaintSwitch");
  reg<CheckPaint>(registry, "CheckPaint");
  reg<Classifier>(registry, "Classifier");
  reg<IPClassifier>(registry, "IPClassifier");
  reg<IPFilter>(registry, "IPFilter");
  reg<Queue>(registry, "Queue");
  reg<Unqueue>(registry, "Unqueue");
  reg<RatedUnqueue>(registry, "RatedUnqueue");
  reg<RoundRobinSched>(registry, "RoundRobinSched");
  reg<PrioSched>(registry, "PrioSched");
  reg<CheckIPHeader>(registry, "CheckIPHeader");
  reg<DecIPTTL>(registry, "DecIPTTL");
  reg<SetIPDSCP>(registry, "SetIPDSCP");
  reg<IPRewriter>(registry, "IPRewriter");
  reg<BandwidthShaper>(registry, "BandwidthShaper");
  reg<Delay>(registry, "Delay");
  reg<RandomSample>(registry, "RandomSample");
  reg<Meter>(registry, "Meter");
  reg<Firewall>(registry, "Firewall");
  reg<DpiCounter>(registry, "DpiCounter");
  reg<FromDevice>(registry, "FromDevice");
  reg<ToDevice>(registry, "ToDevice");
  register_flow_elements(registry);
}

void register_flow_elements(ElementRegistry& registry) {
  reg<FlowManager>(registry, "FlowManager");
  reg<FlowNAT>(registry, "FlowNAT");
  reg<FlowLB>(registry, "FlowLB");
  reg<TcpReassembler>(registry, "TcpReassembler");
  reg<StreamIDS>(registry, "StreamIDS");
}

}  // namespace escape::click
