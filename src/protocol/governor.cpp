#include "protocol/governor.hpp"

#include "common/errors.hpp"
#include "common/serial.hpp"

namespace repchain::protocol {

Governor::Governor(GovernorId id, runtime::NodeContext& ctx, crypto::SigningKey key,
                   const identity::IdentityManager& im,
                   ledger::ValidationOracle& oracle, const Directory& directory,
                   runtime::Broadcaster& governor_group, GovernorConfig config,
                   StakeLedger genesis_stake, std::vector<CollectorId> visible_collectors,
                   storage::NodeStateStore* store)
    : id_(id),
      ctx_(ctx),
      node_(ctx.node()),
      key_(std::move(key)),
      im_(im),
      oracle_(oracle),
      directory_(directory),
      config_(config),
      visible_(visible_collectors.begin(), visible_collectors.end()),
      out_(ctx, governor_group, config.reliable_delivery, config.channel_epoch,
           [this](const runtime::Message& m) { on_message(m); }),
      table_(config.rep),
      engine_(table_, oracle_, ctx_.rng()),
      argues_(table_, oracle_, metrics_, config.rep.argue_latency_u),
      stake_consensus_(id, key_, im_, directory_, out_, std::move(genesis_stake)),
      equivocation_(im_, directory_, table_, metrics_),
      intake_(im_, directory_, table_, engine_, assembler_, argues_, equivocation_,
              metrics_, ctx_.timers(), config_, visible_),
      store_(store) {
  config_.rep.validate();
  for (const NodeId n : directory_.governor_nodes()) {
    if (n != node_) sync_peers_.push_back(n);
  }
  // The governor connects with all collectors (§3.1 default) — or with its
  // partial view — and mirrors the provider-collector link structure into
  // its local reputation vectors.
  for (CollectorId c : directory_.collectors()) {
    if (!sees(c)) continue;
    table_.register_collector(c);
    for (ProviderId p : directory_.providers_of(c)) table_.link(c, p);
  }

  // Route every fresh equivocation/double-spend punishment into a
  // kByzantineEvidence trace so harnesses observe detections without
  // reaching into node internals.
  equivocation_.set_evidence(
      [this](adversary::ByzantineKind kind, std::uint64_t offender) {
        emit_byzantine(kind, offender);
      });
  intake_.set_evidence([this](adversary::ByzantineKind kind, std::uint64_t offender) {
    emit_byzantine(kind, offender);
  });
}

void Governor::emit(runtime::TraceKind kind, std::uint64_t arg0, std::uint64_t arg1) {
  ctx_.emit(runtime::TraceEvent{kind, node_, round_, arg0, arg1, ctx_.now()});
}

void Governor::emit_byzantine(adversary::ByzantineKind kind, std::uint64_t offender) {
  ++metrics_.byzantine_evidence;
  emit(runtime::TraceKind::kByzantineEvidence, static_cast<std::uint64_t>(kind),
       offender);
}

void Governor::on_message(const runtime::Message& msg) {
  if (out_.on_message(msg)) return;
  switch (msg.kind) {
    case runtime::MsgKind::kCollectorUpload:
      intake_.on_upload(msg);
      break;
    case runtime::MsgKind::kArgue:
      on_argue(msg);
      break;
    case runtime::MsgKind::kVrfAnnounce:
      on_vrf(msg);
      break;
    case runtime::MsgKind::kBlockProposal:
      on_block_proposal(msg);
      break;
    case runtime::MsgKind::kStakeTx:
      on_stake_tx(msg);
      break;
    case runtime::MsgKind::kStateProposal:
      on_state_proposal(msg);
      break;
    case runtime::MsgKind::kStateSignature:
      on_state_signature(msg);
      break;
    case runtime::MsgKind::kStateCommit:
      on_state_commit(msg);
      break;
    case runtime::MsgKind::kExpelEvidence:
      on_expel(msg);
      break;
    case runtime::MsgKind::kLabelGossip:
      on_label_gossip(msg);
      break;
    case runtime::MsgKind::kBlockRequest:
      on_block_request(msg);
      break;
    case runtime::MsgKind::kBlockResponse:
      on_block_response(msg);
      break;
    default:
      break;
  }
}

// --- Round driving (timer-armed phases) --------------------------------------

void Governor::arm_round(Round round, SimTime t0, const RoundTiming& timing) {
  runtime::TimerService& timers = ctx_.timers();
  timers.schedule_at(t0 + timing.election_offset, [this, round] { begin_round(round); });
  if (config_.enable_label_gossip) {
    timers.schedule_at(t0 + timing.gossip_offset, [this] { gossip_labels(); });
  }
  timers.schedule_at(t0 + timing.propose_offset, [this] { propose_if_leader(); });
  timers.schedule_at(t0 + timing.stake_offset,
                     [this] { run_stake_consensus_if_leader(); });
  timers.schedule_at(t0 + timing.audit_offset,
                     [this] { emit(runtime::TraceKind::kAuditPoint); });
  if (config_.watchdog_rounds > 0) {
    timers.schedule_at(t0 + timing.round_span, [this] { watchdog_check(); });
  }
  if (auto_rounds_) {
    timers.schedule_at(t0 + timing.round_span, [this, round, t0] {
      emit(runtime::TraceKind::kRoundEnded);
      arm_round(round + 1, t0 + auto_timing_.round_span, auto_timing_);
    });
  }
}

void Governor::drive_rounds(Round first, SimTime t0, const RoundTiming& timing) {
  auto_rounds_ = true;
  auto_timing_ = timing;
  arm_round(first, t0, timing);
}

// --- Label gossip (equivocation-detection extension, §4.2) -------------------

void Governor::gossip_labels() {
  if (!config_.enable_label_gossip) return;
  auto payload = equivocation_.take_gossip_payload();
  if (!payload) return;
  out_.broadcast(runtime::MsgKind::kLabelGossip, *payload);
}

void Governor::on_label_gossip(const runtime::Message& msg) {
  if (!config_.enable_label_gossip || msg.from == node_) return;
  equivocation_.on_gossip_payload(msg.payload);
}

// --- Argue handling (Algorithm 2, deliver_argue) -----------------------------

void Governor::on_argue(const runtime::Message& msg) {
  ++metrics_.argues_received;
  ArgueMsg argue;
  try {
    argue = ArgueMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  const auto provider_node = directory_.find_node(argue.provider);
  if (!provider_node || !im_.authorize(*provider_node, identity::Role::kProvider,
                                       argue.signed_preimage(), argue.provider_sig)) {
    return;
  }
  if (argue.tx.provider != argue.provider) return;
  // A blacklisted double-spender cannot argue a withdrawn twin back in.
  if (config_.byzantine_defense && intake_.blacklisted(argue.provider)) return;

  auto rec = argues_.handle_argue(argue);
  if (rec) assembler_.add_pending(std::move(*rec));
}

bool Governor::reveal_unchecked(const ledger::TxId& id) { return argues_.reveal(id); }

std::vector<ledger::TxId> Governor::unrevealed_unchecked() const {
  return argues_.unrevealed();
}

// --- Leader election (§3.4.3) ------------------------------------------------

void Governor::begin_round(Round round) {
  round_ = round;
  leader_announced_ = false;
  // A reliable-mode replica that committed nothing in the previous round may
  // be behind rather than merely stalled — e.g. it rejected the real
  // leader's proposal against an incomplete election view and the reliable
  // channel will never redeliver it. Hold it out of this election until one
  // sync pass confirms (or repairs) its head; head_checked_ limits the
  // hold-down to one round per stall episode.
  if (out_.reliable() && round > 1 && chain_.height() == round_start_height_ &&
      !head_checked_) {
    recovering_ = true;
  }
  round_start_height_ = chain_.height();
  emit(runtime::TraceKind::kRoundStarted);
  // Proposals stashed against the previous round's winner are dead now.
  metrics_.blocks_rejected += pending_proposals_.size();
  pending_proposals_.clear();
  // Age out the equivocation evidence base and the double-spend serial guard.
  equivocation_.age_out();
  intake_.age_out();
  election_.emplace(round, stake_consensus_.stake(), expelled_);
  // Feed back any announcements that beat this boundary here; ones for a
  // still-later round re-stash themselves, stale ones fall out.
  if (!early_announcements_.empty()) {
    std::vector<runtime::Message> replay = std::move(early_announcements_);
    early_announcements_.clear();
    for (const runtime::Message& m : replay) on_vrf(m);
  }
  // A recovering replica follows the round (accepts announcements and
  // proposals) but does not announce: winning an election with a stale chain
  // would make it propose — and self-commit — a forked block.
  if (recovering_) {
    sync_chain();
    return;
  }
  const VrfAnnounceMsg msg =
      make_announcement(round, id_, stake_consensus_.stake().of(id_), key_);
  out_.broadcast(runtime::MsgKind::kVrfAnnounce, msg.encode());
}

void Governor::on_vrf(const runtime::Message& msg) {
  VrfAnnounceMsg announce;
  try {
    announce = VrfAnnounceMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  // Announcements race the round boundary: every governor sends exactly at
  // its own t0, so a peer a few timer ticks ahead delivers before our
  // begin_round fires. Hold those for the round they belong to instead of
  // letting the previous round's election reject them — an announcement
  // lost here shrinks the quorum-closed view and can split the election.
  if (!election_ || announce.round > round_) {
    if (announce.round >= round_ && announce.round <= round_ + 2 &&
        early_announcements_.size() < kMaxEarlyAnnouncements) {
      early_announcements_.push_back(msg);
    }
    return;
  }
  // An expelled governor keeps announcing (its stake would dominate any
  // replica that missed the expulsion — e.g. one that crashed past the expel
  // broadcast and restarted with an empty expelled set, which then waits
  // forever on a leader that never proposes). Re-share the held proof at
  // most once per round so such replicas re-converge.
  if (expelled_.contains(announce.governor)) reshare_expulsion(announce.governor);
  const auto announcer_node = directory_.find_node(announce.governor);
  if (!announcer_node) return;  // names no registered governor
  const bool fresh = election_->add_announcement(announce, im_, *announcer_node);
  // Echo relay (reliable mode): forward a first-seen valid announcement to
  // the remaining governors over our own channel, so its delivery no longer
  // depends on the announcer staying alive to retransmit it. Without the
  // echo, a crash right after announcing can split the election view at
  // propose time: the peers that saw the winner wait for a dead leader while
  // the rest elect — and fork behind — somebody else. The proofs are
  // verified against the announcer's enrolled key, so a relay cannot forge,
  // and the first-seen gate stops re-echo storms.
  if (fresh && out_.reliable() && announce.governor != id_) {
    for (const NodeId peer : sync_peers_) {
      if (peer == *announcer_node || peer == msg.from) continue;
      out_.send(peer, runtime::MsgKind::kVrfAnnounce, msg.payload);
    }
  }
  announce_leader();
  retry_pending_proposals();
}

void Governor::announce_leader() {
  if (leader_announced_) return;
  if (const auto winner = election_->winner()) {
    leader_announced_ = true;
    emit(runtime::TraceKind::kLeaderElected, winner->value());
  }
}

bool Governor::is_leader() const { return election_ && election_->winner() == id_; }

std::optional<GovernorId> Governor::round_leader() const {
  return election_ ? election_->winner() : std::nullopt;
}

// --- Block proposal / adoption -----------------------------------------------

void Governor::close_election() {
  if (!out_.reliable() || !election_) return;
  election_->close(election_->expected() / 2 + 1);
  announce_leader();
  retry_pending_proposals();
}

void Governor::watchdog_check() {
  if (chain_.height() > round_start_height_) {
    stalled_rounds_ = 0;
    return;
  }
  ++stalled_rounds_;
  if (stalled_rounds_ < config_.watchdog_rounds) return;
  // Degrade gracefully instead of hanging: surface the stall and try to
  // adopt peers' blocks. The next begin_round re-arms the election anyway.
  ++metrics_.watchdog_trips;
  emit(runtime::TraceKind::kRoundStalled, stalled_rounds_);
  sync_chain();
}

void Governor::propose_if_leader() {
  // In reliable mode an election may never complete (announcements lost to a
  // partition); close it on a majority quorum now so the round can proceed.
  close_election();
  if (!is_leader()) return;
  const ledger::Block block =
      assembler_.propose(chain_, round_, id_, config_.block_limit, key_);
  if (byz_.equivocate_proposals && !block.txs.empty()) {
    // Adversary layer: sign a second, conflicting block for the same serial
    // (same prefix, one record short) and send each variant to a disjoint
    // half of the peers. Self-adopt variant A like an honest leader would.
    std::vector<ledger::TxRecord> txs_b(block.txs.begin(), block.txs.end() - 1);
    const ledger::Block alt = ledger::make_block(block.serial, block.round,
                                                 block.prev_hash, id_,
                                                 std::move(txs_b), key_);
    const Bytes enc_a = block.encode();
    const Bytes enc_b = alt.encode();
    for (std::size_t i = 0; i < sync_peers_.size(); ++i) {
      out_.send(sync_peers_[i], runtime::MsgKind::kBlockProposal,
                i < sync_peers_.size() / 2 ? enc_a : enc_b);
    }
    ++metrics_.byzantine_equivocations_sent;
    out_.deliver_local(runtime::MsgKind::kBlockProposal, enc_a);
    return;
  }
  out_.broadcast(runtime::MsgKind::kBlockProposal, block.encode());
}

void Governor::on_block_proposal(const runtime::Message& msg) {
  ledger::Block block;
  try {
    block = ledger::Block::decode(msg.payload);
  } catch (const DecodeError&) {
    ++metrics_.blocks_rejected;
    return;
  }
  if (!directory_.find_node(block.leader)) {
    ++metrics_.blocks_rejected;  // names no registered governor
    return;
  }
  if (expelled_.contains(block.leader)) {
    ++metrics_.blocks_rejected;
    // Re-share the stored expulsion proof (at most once per round): a
    // replica that crashed after the original expel broadcast lost its
    // expelled set, and honest governors no longer echo the offender's
    // proposals — without this, that replica keeps counting the expelled
    // leader in its elections and the quorum diverges permanently.
    reshare_expulsion(block.leader);
    return;
  }

  if (config_.byzantine_defense) {
    // Leader-equivocation defense: record the signed proposal; two valid
    // leader signatures over different blocks at one serial are a
    // self-contained proof.
    const auto note = equivocation_.note_proposal(block);
    if (note.conflict) {
      handle_proposal_equivocation(*note.conflict, block);
      return;
    }
    if (!note.fresh) return;  // duplicate (an echo copy) or an unsigned claim
    // Echo the first-seen variant to the other governors: an equivocator
    // sends each variant to a disjoint peer subset, so without the echo no
    // single governor ever holds both signatures.
    const NodeId leader_node = directory_.node_of(block.leader);
    for (const NodeId peer : sync_peers_) {
      if (peer == leader_node || peer == msg.from) continue;
      out_.send(peer, runtime::MsgKind::kBlockProposal, msg.payload);
    }
    // Hold the proposal for 2*Delta before committing: under the synchrony
    // bound, a conflicting variant's echo reaches us within that window, so
    // no honest governor commits an equivocator's block.
    ctx_.timers().schedule_after(2 * ctx_.delta(),
                                 [this, block] { settle_proposal(block); });
    return;
  }
  settle_proposal(std::move(block));
}

void Governor::settle_proposal(ledger::Block block) {
  if (config_.byzantine_defense &&
      (expelled_.contains(block.leader) ||
       equivocation_.proposal_conflicted(block.leader, block.serial))) {
    ++metrics_.blocks_rejected;  // conflict surfaced during the hold window
    return;
  }
  // Leader legitimacy: the proposer must be this round's election winner. A
  // proposal can legitimately race ahead of its own election — announcements
  // are still in flight right after a heal or a restart — so an undecided or
  // mismatching winner view stashes the proposal for re-evaluation instead
  // of discarding it; retry_pending_proposals settles it once the view
  // converges, and the next begin_round drops whatever never matched.
  const auto winner = round_leader();
  if (!winner || block.leader != *winner) {
    pending_proposals_.push_back(std::move(block));
    return;
  }
  adopt_proposal(std::move(block));
}

void Governor::handle_proposal_equivocation(const ledger::Block& prior,
                                            const ledger::Block& offending) {
  ++metrics_.blocks_rejected;
  expelled_.insert(offending.leader);
  // The kByzantineEvidence trace was already emitted by the detector's
  // evidence callback; spread the proof so every governor expels the leader,
  // and keep it around to re-share with replicas that missed the broadcast.
  const adversary::BlockEquivocationEvidence evidence{prior, offending};
  expel_evidence_[offending.leader] = evidence.encode();
  broadcast_expel(offending.leader, expel_evidence_[offending.leader]);
}

void Governor::adopt_proposal(ledger::Block block) {
  const auto leader_node = directory_.find_node(block.leader);
  if (!leader_node || !im_.authorize(*leader_node, identity::Role::kGovernor,
                                     block.signed_preimage(), block.leader_sig)) {
    ++metrics_.blocks_rejected;
    return;
  }

  const BlockSerial expected = chain_.height() + 1;
  if (block.serial > expected) {
    // A gap below an authenticated current-leader proposal means *we* are
    // behind (e.g. freshly restarted), not that the leader misbehaved. Stash
    // the proposal and fetch the missing prefix from peers; finish_sync
    // rejects it if the gap cannot be filled.
    future_blocks_.emplace(block.serial, std::move(block));
    sync_chain();
    return;
  }
  if (block.serial < expected) {
    ++metrics_.blocks_rejected;  // stale replay of a block we already hold
    return;
  }

  try {
    chain_.append(block);
  } catch (const ProtocolError&) {
    // Right serial but bad prev hash / tx root: leader misbehaviour.
    ++metrics_.blocks_rejected;
    broadcast_expel(block.leader, block.encode());
    return;
  }
  commit_appended_head();
}

void Governor::commit_appended_head() {
  ++metrics_.blocks_accepted;
  head_checked_ = false;
  // Reconcile local pending list: drop records now present in the chain.
  const ledger::Block& accepted = chain_.head();
  persist_block(accepted);
  assembler_.reconcile(accepted);
  emit(runtime::TraceKind::kBlockCommitted, accepted.serial, accepted.txs.size());
}

void Governor::retry_pending_proposals() {
  if (pending_proposals_.empty()) return;
  const auto winner = round_leader();
  if (!winner) return;
  std::vector<ledger::Block> pending = std::move(pending_proposals_);
  pending_proposals_.clear();
  for (auto& block : pending) {
    if (block.leader == *winner && !expelled_.contains(block.leader) &&
        !(config_.byzantine_defense &&
          equivocation_.proposal_conflicted(block.leader, block.serial))) {
      adopt_proposal(std::move(block));
    } else {
      // A better announcement may still arrive and shift the winner (the
      // election tracks the best ticket even after a quorum close).
      pending_proposals_.push_back(std::move(block));
    }
  }
}

void Governor::on_block_request(const runtime::Message& msg) {
  // Serve retrieve(s) to any node.
  BlockRequestMsg req;
  try {
    req = BlockRequestMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  BlockResponseMsg resp;
  resp.serial = req.serial;
  const auto block = chain_.retrieve(req.serial);
  if (block) {
    resp.found = true;
    if (byz_.lying_sync) {
      // Adversary layer: serve an internally-forged block — tampered first
      // label, leadership claimed for ourselves, re-rooted and re-signed.
      // The forgery links correctly to the caller's chain, so only the
      // corroboration defense (not the local append checks) can reject it.
      ledger::Block forged = *block;
      if (!forged.txs.empty()) {
        forged.txs.front().label = ledger::opposite(forged.txs.front().label);
      }
      forged.leader = id_;
      forged.tx_root = forged.compute_tx_root();
      forged.leader_sig = key_.sign(forged.signed_preimage());
      resp.block = forged.encode();
      ++metrics_.byzantine_lies_served;
      if (directory_.governor_at(msg.from)) ++metrics_.byzantine_lies_to_governors;
    } else {
      resp.block = block->encode();
    }
  }
  out_.send(msg.from, runtime::MsgKind::kBlockResponse, resp.encode());
}

// --- Catch-up sync (provider light-client sync, reused node-to-node) ---------

void Governor::sync_chain() {
  if (sync_in_flight_) return;
  if (sync_peers_.empty()) {
    // Nobody to ask; whatever is stashed can only settle against the local
    // head.
    finish_sync();
    return;
  }
  sync_in_flight_ = true;
  sync_not_found_ = 0;
  request_block(chain_.height() + 1);
}

SimDuration Governor::sync_timeout() const { return 8 * ctx_.delta(); }

void Governor::note_lying_peer(NodeId peer) {
  distrusted_peers_.insert(peer);
  ++metrics_.lying_sync_rejected;
  const auto offender = directory_.governor_at(peer);
  emit_byzantine(adversary::ByzantineKind::kLyingSync,
                 offender ? offender->value() : peer.value());
}

void Governor::request_block(BlockSerial serial) {
  // Distrusted peers (caught serving invalid or outvoted sync responses) are
  // skipped while any alternative remains; with none scheduled the pool is
  // exactly sync_peers_, so honest runs rotate identically to before.
  std::vector<NodeId> pool;
  for (const NodeId n : sync_peers_) {
    if (!distrusted_peers_.contains(n)) pool.push_back(n);
  }
  if (pool.empty()) pool = sync_peers_;
  const NodeId peer = pool[(serial + sync_attempts_) % pool.size()];
  BlockRequestMsg req;
  req.serial = serial;
  const std::uint64_t nonce = ++sync_nonce_;
  out_.send(peer, runtime::MsgKind::kBlockRequest, req.encode());
  // A lost request or response must not wedge the sync flag forever: give up
  // on this attempt after a grace window unless a newer request superseded
  // it. Stashed future blocks stay stashed — a later sync (watchdog- or
  // proposal-triggered) can still fill the gap below them.
  ctx_.timers().schedule_after(sync_timeout(), [this, nonce] {
    if (!sync_in_flight_ || nonce != sync_nonce_) return;
    ++metrics_.sync_timeouts;
    ++sync_attempts_;
    sync_in_flight_ = false;
    drain_stash();
    // The restart hold-down depends on a sync eventually succeeding: keep
    // polling (next peer each attempt) until one pass completes — e.g. a
    // replica that restarted inside a partition can only catch up after the
    // heal, long after its first request died.
    if (recovering_) sync_chain();
  });
}

void Governor::on_block_response(const runtime::Message& msg) {
  BlockResponseMsg resp;
  try {
    resp = BlockResponseMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  if (!sync_in_flight_) return;
  if (resp.serial != chain_.height() + 1) return;  // stale response

  if (!resp.found) {
    // Peer has nothing above our head. Corroborate before concluding the
    // pass: a lone answer may come from a replica exactly as far behind as
    // we are, and a false "caught up" lets a stale replica win an election
    // and fork. Majority agreement (or a timeout ending the pass) decides.
    ++sync_not_found_;
    if (sync_not_found_ >= sync_peers_.size() / 2 + 1) {
      finish_sync();
    } else {
      ++sync_attempts_;  // rotate to the next peer
      request_block(chain_.height() + 1);
    }
    return;
  }

  ledger::Block block;
  bool decoded = true;
  try {
    block = ledger::Block::decode(resp.block);
  } catch (const DecodeError&) {
    decoded = false;
  }
  // Same light-client verification as Provider::on_message: leader must be
  // an enrolled governor, signature must authenticate; append re-checks
  // serial continuity, hash link and tx-root.
  if (decoded) {
    const auto leader_node = directory_.find_node(block.leader);
    decoded = leader_node && im_.authorize(*leader_node, identity::Role::kGovernor,
                                           block.signed_preimage(), block.leader_sig);
  }
  if (!decoded) {
    ++metrics_.blocks_rejected;
    if (config_.byzantine_defense && sync_peers_.size() > 1) {
      // An unverifiable response marks the server as a liar; retry the same
      // serial against the next peer instead of abandoning the pass.
      note_lying_peer(msg.from);
      ++sync_attempts_;
      request_block(resp.serial);
      return;
    }
    finish_sync();
    return;
  }

  if (config_.byzantine_defense && sync_peers_.size() > 1) {
    // Corroborate before adopting: a lying peer can serve a forged block
    // that links perfectly onto our chain (tampered TXList, re-signed by
    // itself as leader), which every local check accepts. Adoption waits
    // until two distinct peers served byte-identical encodings; the losing
    // candidates' servers are distrusted.
    auto& candidates = sync_candidates_[resp.serial];
    SyncCandidate* match = nullptr;
    for (auto& cand : candidates) {
      if (cand.encoding == resp.block) {
        match = &cand;
        break;
      }
    }
    if (match == nullptr) {
      candidates.push_back(SyncCandidate{resp.block, {}});
      match = &candidates.back();
    }
    match->peers.insert(msg.from);
    if (match->peers.size() < 2) {
      ++sync_attempts_;  // poll another peer for a second opinion
      request_block(resp.serial);
      return;
    }
    for (const auto& cand : candidates) {
      if (cand.encoding == match->encoding) continue;
      for (const NodeId liar : cand.peers) note_lying_peer(liar);
    }
    sync_candidates_.erase(resp.serial);
  }

  try {
    chain_.append(block);
  } catch (const ProtocolError&) {
    ++metrics_.blocks_rejected;
    finish_sync();
    return;
  }
  ++metrics_.blocks_synced;
  head_checked_ = false;
  sync_not_found_ = 0;  // progress: restart the not-found corroboration
  const ledger::Block& adopted = chain_.head();
  persist_block(adopted);
  assembler_.reconcile(adopted);
  future_blocks_.erase(adopted.serial);
  drain_stash();

  // Chain the next request until a peer reports not-found.
  request_block(chain_.height() + 1);
}

void Governor::finish_sync() {
  sync_in_flight_ = false;
  recovering_ = false;   // reached a peer and drained its head: caught up
  head_checked_ = true;  // further commit-free rounds do not re-trigger it
  sync_candidates_.clear();
  drain_stash();
  // Stashed proposals still above the head are unadoptable: the gap below
  // them cannot be filled from any peer.
  for (const auto& entry : future_blocks_) {
    (void)entry;
    ++metrics_.blocks_rejected;
  }
  future_blocks_.clear();
}

void Governor::drain_stash() {
  while (true) {
    const auto it = future_blocks_.begin();
    if (it == future_blocks_.end()) break;
    if (it->first <= chain_.height()) {
      future_blocks_.erase(it);  // arrived via sync in the meantime
      continue;
    }
    if (it->first != chain_.height() + 1) break;
    try {
      chain_.append(it->second);
    } catch (const ProtocolError&) {
      // Contiguous serial but bad prev hash / tx root: misbehaviour after all.
      ++metrics_.blocks_rejected;
      broadcast_expel(it->second.leader, it->second.encode());
      future_blocks_.erase(it);
      continue;
    }
    future_blocks_.erase(it);
    commit_appended_head();
  }
}

// --- Stake transfers and the 3-step consensus (§3.4.3) -----------------------

void Governor::submit_stake_transfer(GovernorId to, std::uint64_t amount) {
  stake_consensus_.submit_transfer(to, amount);
}

void Governor::run_stake_consensus_if_leader() {
  if (!is_leader()) return;
  stake_consensus_.run_as_leader(round_);
}

void Governor::on_stake_tx(const runtime::Message& msg) {
  StakeTxMsg stx;
  try {
    stx = StakeTxMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  const auto from_node = directory_.find_node(stx.from);
  if (!from_node || !im_.authorize(*from_node, identity::Role::kGovernor,
                                   stx.signed_preimage(), stx.sig)) {
    return;
  }
  stake_consensus_.on_stake_tx(std::move(stx));
}

void Governor::on_state_proposal(const runtime::Message& msg) {
  StateProposalMsg proposal;
  try {
    proposal = StateProposalMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  if (proposal.round != round_) return;
  const auto winner = round_leader();
  if (!winner || proposal.leader != *winner) return;
  const NodeId leader_node = directory_.node_of(proposal.leader);
  if (!im_.authorize(leader_node, identity::Role::kGovernor, proposal.signed_preimage(),
                     proposal.leader_sig)) {
    return;
  }

  auto evidence = stake_consensus_.on_proposal(proposal, round_);
  if (evidence) broadcast_expel(proposal.leader, std::move(*evidence));
}

void Governor::on_state_signature(const runtime::Message& msg) {
  StateSignatureMsg sig;
  try {
    sig = StateSignatureMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  stake_consensus_.on_signature(sig, round_, expelled_);
}

void Governor::on_state_commit(const runtime::Message& msg) {
  StateCommitMsg commit;
  try {
    commit = StateCommitMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  if (stake_consensus_.on_commit(commit, round_, round_leader(), expelled_)) {
    // A stake-transform block is the paper's recovery point: snapshot the
    // durable state (eagerly, or deferred under WAL compaction).
    persist_recovery_point();
  }
}

// --- Checkpointing -----------------------------------------------------------

namespace {

constexpr const char* kCkptMagicV2 = "repchain-governor-ckpt-v2";

void encode_unchecked_entry(BinaryWriter& w, const UncheckedEntry& entry) {
  w.bytes(entry.tx.encode());
  w.u32(static_cast<std::uint32_t>(entry.reports.size()));
  for (const auto& report : entry.reports) {
    w.u32(report.collector.value());
    w.boolean(report.label == ledger::Label::kValid);
  }
  w.f64(entry.expected_loss);
  w.boolean(entry.truly_valid);
  w.boolean(entry.revealed);
}

UncheckedEntry decode_unchecked_entry(BinaryReader& r) {
  UncheckedEntry entry;
  entry.tx = ledger::Transaction::decode(r.bytes());
  const std::uint32_t n_reports = r.u32();
  r.expect_count(n_reports, 5);
  entry.reports.reserve(n_reports);
  for (std::uint32_t i = 0; i < n_reports; ++i) {
    reputation::Report report;
    report.collector = CollectorId(r.u32());
    report.label = r.boolean() ? ledger::Label::kValid : ledger::Label::kInvalid;
    entry.reports.push_back(report);
  }
  entry.expected_loss = r.f64();
  entry.truly_valid = r.boolean();
  entry.revealed = r.boolean();
  return entry;
}

}  // namespace

Bytes Governor::checkpoint() const {
  BinaryWriter w;
  w.str(kCkptMagicV2);
  w.u32(id_.value());
  w.u64(static_cast<std::uint64_t>(chain_.height()));
  for (const auto& block : chain_.blocks()) w.bytes(block.encode());
  w.bytes(table_.encode());
  w.bytes(stake_consensus_.stake().encode());
  // v2: unchecked entries with their screening-time report snapshots, in
  // screening order, so case-3 updates survive a restore.
  const auto entries = argues_.entries_in_order();
  w.u64(entries.size());
  for (const UncheckedEntry* entry : entries) encode_unchecked_entry(w, *entry);
  return std::move(w).take();
}

void Governor::restore(BytesView data) {
  BinaryReader r(data);
  if (r.str() != kCkptMagicV2) {
    throw DecodeError("bad governor checkpoint magic");
  }
  if (GovernorId(r.u32()) != id_) {
    throw ProtocolError("checkpoint belongs to a different governor");
  }
  const std::uint64_t height = r.u64();
  r.expect_count(height, 4);
  ledger::ChainStore chain;
  for (std::uint64_t i = 0; i < height; ++i) {
    chain.append(ledger::Block::decode(r.bytes()));  // re-verified on append
  }
  reputation::ReputationTable table = reputation::ReputationTable::decode(r.bytes());
  StakeLedger stake = StakeLedger::decode(r.bytes());
  const std::uint64_t n_entries = r.u64();
  r.expect_count(n_entries, 14);
  std::vector<UncheckedEntry> entries;
  entries.reserve(n_entries);
  for (std::uint64_t i = 0; i < n_entries; ++i) {
    entries.push_back(decode_unchecked_entry(r));
  }
  r.expect_done();

  chain_ = std::move(chain);
  table_ = std::move(table);
  stake_consensus_.restore_stake(std::move(stake));
  // Rebuild the packed-transaction index from the restored chain; round
  // transients (aggregations, election) are dropped; unchecked entries are
  // reinstalled.
  assembler_.reset_from_chain(chain_);
  intake_.clear();
  argues_.restore_entries(std::move(entries));
  election_.reset();
  future_blocks_.clear();
  sync_in_flight_ = false;
}

// --- Durable state -----------------------------------------------------------

void Governor::persist_block(const ledger::Block& block) {
  if (store_ == nullptr) return;
  store_->wal_append(block.encode());
  ++blocks_since_snapshot_;
  ++wal_appends_;
  if (config_.snapshot_interval > 0 &&
      blocks_since_snapshot_ >= config_.snapshot_interval) {
    persist_snapshot();
  } else if (config_.wal_compaction_appends > 0 && recovery_point_ &&
             wal_appends_ >= config_.wal_compaction_appends) {
    // The log is long enough: persist the checkpoint captured at the latest
    // stake-transform commit and drop the records it covers, keeping the
    // tail appended since. Replay length stays bounded without the eager
    // full-snapshot-per-commit write amplification.
    store_->compact(recovery_point_->checkpoint, recovery_point_->covered_records);
    wal_appends_ -= recovery_point_->covered_records;
    blocks_since_snapshot_ = wal_appends_;
    recovery_point_.reset();
  }
}

void Governor::persist_snapshot() {
  if (store_ == nullptr) return;
  store_->write_snapshot(checkpoint());
  blocks_since_snapshot_ = 0;
  wal_appends_ = 0;
  recovery_point_.reset();  // superseded: the new snapshot covers more
}

void Governor::persist_recovery_point() {
  if (store_ == nullptr) return;
  if (config_.wal_compaction_appends > 0) {
    recovery_point_ = RecoveryPoint{checkpoint(), wal_appends_};
  } else {
    persist_snapshot();
  }
}

void Governor::recover_from_store() {
  if (store_ == nullptr) return;
  if (const auto snapshot = store_->load_snapshot()) restore(*snapshot);
  // Replay the WAL tail. Records the snapshot already covers are expected
  // after a crash between snapshot rename and WAL truncation — skip them by
  // serial; everything else must extend the chain cleanly.
  const std::vector<Bytes> records = store_->wal_records();
  for (const auto& record : records) {
    const ledger::Block block = ledger::Block::decode(record);
    if (block.serial <= chain_.height()) continue;
    chain_.append(block);  // re-verifies serial, hash link, tx root
  }
  if (!chain_.audit()) {
    throw ProtocolError("recovered chain failed audit");
  }
  assembler_.reset_from_chain(chain_);
  blocks_since_snapshot_ = 0;
  wal_appends_ = records.size();
  recovery_point_.reset();  // pre-crash capture died with the old life
  // Reliable mode only: default delivery keeps the synchronous-model
  // assumption that the restart sync completes before the next election.
  recovering_ = out_.reliable();
}

// --- Expulsion ---------------------------------------------------------------

void Governor::broadcast_expel(GovernorId accused, Bytes evidence) {
  const ExpelMsg msg = make_expel(round_, id_, accused, std::move(evidence), key_);
  out_.broadcast(runtime::MsgKind::kExpelEvidence, msg.encode());
}

void Governor::reshare_expulsion(GovernorId accused) {
  const auto ev = expel_evidence_.find(accused);
  if (ev != expel_evidence_.end() && expel_reshare_round_ != round_) {
    expel_reshare_round_ = round_;
    broadcast_expel(accused, ev->second);
  }
}

void Governor::on_expel(const runtime::Message& msg) {
  ExpelMsg expel;
  try {
    expel = ExpelMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  const auto accuser_node = directory_.find_node(expel.accuser);
  if (!accuser_node || !im_.authorize(*accuser_node, identity::Role::kGovernor,
                                      expel.signed_preimage(), expel.accuser_sig)) {
    return;
  }
  const auto accused_node = directory_.find_node(expel.accused);
  if (!accused_node) return;

  // Leader-equivocation evidence (adversary layer) is tried first; its magic
  // prefix cannot decode as a StateProposalMsg, and vice versa. The proof is
  // self-contained — two valid signatures by the accused over different
  // blocks at one serial — so no local state is consulted.
  try {
    const auto equivocation =
        adversary::BlockEquivocationEvidence::decode(expel.evidence);
    if (equivocation.verify(im_, *accused_node, expel.accused)) {
      expel_evidence_[expel.accused] = expel.evidence;  // for later re-shares
      if (expelled_.insert(expel.accused).second) {
        emit_byzantine(adversary::ByzantineKind::kProposalEquivocation,
                       expel.accused.value());
      }
    }
    return;
  } catch (const DecodeError&) {
    // Not that format: fall through to the stake-consensus evidence check.
  }

  // Verify the evidence independently: it must be a state proposal genuinely
  // signed by the accused whose NEW_STATE conflicts with the state this
  // governor derives from the broadcast stake transactions.
  StateProposalMsg proposal;
  try {
    proposal = StateProposalMsg::decode(expel.evidence);
  } catch (const DecodeError&) {
    return;
  }
  if (proposal.leader != expel.accused) return;
  if (!im_.authenticate(*accused_node, proposal.signed_preimage(), proposal.leader_sig)) {
    return;
  }
  if (stake_consensus_.matches_expected(proposal, round_)) {
    return;  // evidence does not show misbehaviour
  }
  expelled_.insert(expel.accused);
}

}  // namespace repchain::protocol
