#include "circuits/builder.h"

namespace vsim::circuits {

SignalId CircuitBuilder::wire(const std::string& name, Logic init) {
  return d_.add_signal(name, LogicVector{init});
}

ProcessId CircuitBuilder::attach(std::unique_ptr<vhdl::ProcessBody> body,
                                 const std::vector<SignalId>& ins,
                                 SignalId out, const std::string& name,
                                 bool synchronous) {
  const std::string pname =
      name.empty() ? "p" + std::to_string(auto_name_++) : name;
  const ProcessId p = d_.add_process(pname, std::move(body));
  for (SignalId s : ins) d_.connect_in(p, s);
  d_.connect_out(p, out);
  d_.set_sync_hint(p, synchronous);
  if (synchronous) d_.set_signal_sync_hint(out, true);
  return p;
}

ProcessId CircuitBuilder::gate(GateKind kind, const std::vector<SignalId>& ins,
                               SignalId out, const std::string& name) {
  auto body = std::make_unique<GateBody>(kind, static_cast<int>(ins.size()),
                                         delay_);
  const ProcessId p =
      attach(std::move(body), ins, out, name, /*synchronous=*/false);
  d_.process(p).set_lookahead(delay_);  // static input-to-output delay
  return p;
}

ProcessId CircuitBuilder::dff(SignalId clk, SignalId d, SignalId q,
                              const std::string& name) {
  auto body = std::make_unique<DffBody>(delay_, /*has_reset=*/false);
  const ProcessId p =
      attach(std::move(body), {clk, d}, q, name, /*synchronous=*/true);
  d_.process(p).set_lookahead(delay_);
  return p;
}

ProcessId CircuitBuilder::dff_r(SignalId clk, SignalId d, SignalId rst,
                                SignalId q, const std::string& name) {
  auto body = std::make_unique<DffBody>(delay_, /*has_reset=*/true);
  const ProcessId p = attach(std::move(body), {clk, d, rst}, q, name,
                             /*synchronous=*/true);
  d_.process(p).set_lookahead(delay_);
  return p;
}

ProcessId CircuitBuilder::clock(SignalId out, PhysTime half_period,
                                const std::string& name) {
  auto body = std::make_unique<ClockBody>(half_period);
  // No lookahead: the clock assigns with zero delay when it wakes, so its
  // promise comes from its pending wake-up alone.
  return attach(std::move(body), {}, out, name, /*synchronous=*/true);
}

ProcessId CircuitBuilder::stimulus(
    SignalId out, std::vector<std::pair<PhysTime, Logic>> script,
    const std::string& name) {
  auto body = std::make_unique<StimulusBody>(std::move(script));
  return attach(std::move(body), {}, out, name, /*synchronous=*/false);
}

ProcessId CircuitBuilder::random_bits(SignalId out, PhysTime period,
                                      std::uint64_t seed, PhysTime stop,
                                      const std::string& name) {
  auto body = std::make_unique<RandomBitBody>(period, seed, stop);
  return attach(std::move(body), {}, out, name, /*synchronous=*/false);
}

SignalId CircuitBuilder::const_wire(Logic v, const std::string& name) {
  const SignalId s = wire(name, v);
  stimulus(s, {{0, v}}, name + "_drv");
  return s;
}

void CircuitBuilder::full_adder(SignalId a, SignalId b, SignalId cin,
                                SignalId sum, SignalId cout,
                                const std::string& prefix) {
  const SignalId axb = wire(prefix + ".axb");
  const SignalId ab = wire(prefix + ".ab");
  const SignalId cx = wire(prefix + ".cx");
  gate(GateKind::kXor, {a, b}, axb, prefix + ".x1");
  gate(GateKind::kXor, {axb, cin}, sum, prefix + ".x2");
  gate(GateKind::kAnd, {a, b}, ab, prefix + ".a1");
  gate(GateKind::kAnd, {axb, cin}, cx, prefix + ".a2");
  gate(GateKind::kOr, {ab, cx}, cout, prefix + ".o1");
}

std::vector<SignalId> CircuitBuilder::adder(const std::vector<SignalId>& a,
                                            const std::vector<SignalId>& b,
                                            SignalId cin,
                                            const std::string& prefix) {
  const std::size_t w = a.size();
  std::vector<SignalId> sum(w);
  SignalId carry = cin;
  for (std::size_t i = 0; i < w; ++i) {
    sum[i] = wire(prefix + ".s" + std::to_string(i));
    const SignalId cnext = wire(prefix + ".c" + std::to_string(i + 1));
    full_adder(a[i], b[i], carry, sum[i], cnext,
               prefix + ".fa" + std::to_string(i));
    carry = cnext;
  }
  return sum;
}

std::vector<SignalId> CircuitBuilder::reg_bank(
    SignalId clk, const std::vector<SignalId>& d, const std::string& prefix) {
  std::vector<SignalId> q(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    q[i] = wire(prefix + ".q" + std::to_string(i), Logic::k0);
    dff(clk, d[i], q[i], prefix + ".ff" + std::to_string(i));
  }
  return q;
}

}  // namespace vsim::circuits
