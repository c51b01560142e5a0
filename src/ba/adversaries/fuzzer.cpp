#include "ba/adversaries/fuzzer.hpp"

#include "ba/bb/bb.hpp"
#include "ba/fallback/dolev_strong.hpp"
#include "ba/strong_ba/strong_ba.hpp"
#include "ba/validity/predicate.hpp"
#include "ba/weak_ba/messages.hpp"
#include "crypto/multisig.hpp"
#include "net/arena.hpp"

namespace mewc::adv {

namespace {

/// A payload type no protocol knows; receivers must treat it as noise.
struct JunkMsg final : Payload {
  std::uint64_t blob = 0;
  [[nodiscard]] std::size_t words() const override { return 1; }
  [[nodiscard]] const char* kind() const override { return "fuzz.junk"; }
};

}  // namespace

void Fuzzer::setup(AdversaryControl& ctrl) {
  const std::uint32_t n = ctrl.n();
  for (std::uint32_t i = 1; corrupted_.size() < corruptions_ && i <= n; ++i) {
    const auto pid = static_cast<ProcessId>(i % n);
    if (pid == spare_ || ctrl.is_corrupted(pid)) continue;
    if (ctrl.corrupt(pid)) corrupted_.push_back(pid);
  }
}

PayloadPtr Fuzzer::random_payload(Round r, AdversaryControl& ctrl,
                                  ProcessId as) {
  const std::uint32_t n = ctrl.n();
  const std::uint32_t t = ctrl.t();

  auto rnd_value = [&] { return Value(rng_.below(6)); };
  auto rnd_digest = [&] { return Digest{rng_.next()}; };
  auto rnd_phase = [&] { return rng_.below(n) + 1; };
  auto rnd_k = [&] {
    const std::uint32_t ks[] = {1, t, t + 1, commit_quorum(n, t), n, n + 3};
    return ks[rng_.below(6)];
  };
  auto rnd_wire = [&] {
    switch (rng_.below(3)) {
      case 0:
        return WireValue::plain(rnd_value());
      case 1: {
        Signature s;
        s.signer = static_cast<ProcessId>(rng_.below(n + 2));
        s.digest = rnd_digest();
        s.tag = rng_.next();
        return WireValue::signed_by(rnd_value(), s);
      }
      default: {
        ThresholdSig c;
        c.digest = rnd_digest();
        c.k = rnd_k();
        c.tag = rng_.next();
        return WireValue::certified(rng_.chance(1, 2) ? kIdkValue : rnd_value(),
                                    c, rng_.below(n + 1));
      }
    }
  };
  // Sometimes attach a REAL partial signature (ours) to a wrong claim, and
  // sometimes a totally fabricated one.
  auto rnd_partial = [&] {
    if (rng_.chance(1, 2)) {
      const std::uint32_t k = rng_.chance(1, 2) ? t + 1 : commit_quorum(n, t);
      return ctrl.bundle(as).share(k).partial_sign(rnd_digest());
    }
    PartialSig p;
    p.signer = static_cast<ProcessId>(rng_.below(n + 2));
    p.digest = rnd_digest();
    p.k = rnd_k();
    p.tag = rng_.next();
    return p;
  };
  auto rnd_threshold_sig = [&] {
    ThresholdSig c;
    c.digest = rnd_digest();
    c.k = rnd_k();
    c.tag = rng_.next();
    return c;
  };

  switch (rng_.below(14)) {
    case 0: {
      auto m = pool::make<wba::ProposeMsg>();
      m->phase = rnd_phase();
      m->value = rnd_wire();
      return m;
    }
    case 1: {
      auto m = pool::make<wba::VoteMsg>();
      m->phase = rnd_phase();
      m->partial = rnd_partial();
      return m;
    }
    case 2: {
      auto m = pool::make<wba::CommitMsg>();
      m->phase = rnd_phase();
      m->value = rnd_wire();
      m->level = rng_.below(n + 2);
      m->qc = rnd_threshold_sig();
      return m;
    }
    case 3: {
      auto m = pool::make<wba::DecideMsg>();
      m->phase = rnd_phase();
      m->partial = rnd_partial();
      return m;
    }
    case 4: {
      auto m = pool::make<wba::FinalizedMsg>();
      m->phase = rnd_phase();
      m->value = rnd_wire();
      m->qc = rnd_threshold_sig();
      return m;
    }
    case 5: {
      auto m = pool::make<wba::HelpReqMsg>();
      m->partial = rnd_partial();
      return m;
    }
    case 6: {
      auto m = pool::make<wba::HelpMsg>();
      m->value = rnd_wire();
      m->proof_phase = rnd_phase();
      m->decide_proof = rnd_threshold_sig();
      return m;
    }
    case 7: {
      auto m = pool::make<wba::FallbackMsg>();
      m->fallback_qc = rnd_threshold_sig();
      m->has_decision = rng_.chance(1, 2);
      m->value = rnd_wire();
      m->proof_phase = rnd_phase();
      m->decide_proof = rnd_threshold_sig();
      return m;
    }
    case 8: {
      auto m = pool::make<bb::HelpReqMsg>();
      m->phase = rnd_phase();
      return m;
    }
    case 9: {
      auto m = pool::make<bb::IdkMsg>();
      m->phase = rnd_phase();
      m->partial = rnd_partial();
      return m;
    }
    case 10: {
      auto m = pool::make<bb::LeaderValueMsg>();
      m->phase = rnd_phase();
      m->value = rnd_wire();
      return m;
    }
    case 11: {
      auto m = pool::make<sba::ProposeCertMsg>();
      m->value = rnd_value();
      m->qc = rnd_threshold_sig();
      return m;
    }
    case 12: {
      auto m = pool::make<fallback::DsRelayMsg>();
      m->instance = static_cast<ProcessId>(rng_.below(n + 2));
      m->value = rnd_wire();
      // Chain: a real self-signature on a random relay claim, with the
      // signer set sometimes inflated.
      const Signature s = ctrl.bundle(as).signer().sign(
          fallback::ds_relay_digest(instance_, m->instance, m->value));
      m->chain = aggregate_start(ctrl.crypto().pki(), s);
      if (rng_.chance(1, 2)) {
        m->chain.signers.insert(static_cast<ProcessId>(rng_.below(n)));
      }
      return m;
    }
    default: {
      // Replay a random correct message observed this round under our own
      // link identity, or plain junk when the wire is quiet.
      const auto posted = ctrl.posted_this_round();
      if (!posted.empty() && rng_.chance(2, 3)) {
        return posted[rng_.below(posted.size())].body;
      }
      auto m = pool::make<JunkMsg>();
      m->blob = rng_.next() ^ r;
      return m;
    }
  }
}

void Fuzzer::act(Round r, AdversaryControl& ctrl) {
  for (ProcessId pid : corrupted_) {
    for (std::uint32_t i = 0; i < per_round_; ++i) {
      PayloadPtr body = random_payload(r, ctrl, pid);
      if (rng_.chance(1, 4)) {
        ctrl.broadcast_as(pid, body);
      } else {
        ctrl.send_as(pid, static_cast<ProcessId>(rng_.below(ctrl.n())),
                     std::move(body));
      }
    }
  }
}

}  // namespace mewc::adv
