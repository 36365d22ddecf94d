#include "qrel/datalog/eval.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "qrel/util/check.h"
#include "qrel/util/fault_injection.h"
#include "qrel/util/snapshot.h"

namespace qrel {

namespace {

// Reads one IDB payload (CompiledDatalog::WriteRelations) into `idb`,
// which must already hold exactly the program's predicates (mapped to
// empty sets); unknown names are data loss. Every restored tuple is
// validated against the predicate's recorded arity and the universe, so a
// forged payload (valid checksum, matching fingerprint) cannot smuggle a
// short or out-of-range tuple into the join's flat relations — it degrades
// to kDataLoss, never UB.
Status ReadIdb(SnapshotReader& r, const std::map<std::string, int>& arity,
               int universe_size, DatalogResult* idb) {
  uint32_t predicate_count = 0;
  QREL_RETURN_IF_ERROR(r.U32(&predicate_count));
  if (predicate_count != idb->size()) {
    return Status::DataLoss("snapshot IDB predicate count mismatch");
  }
  for (uint32_t p = 0; p < predicate_count; ++p) {
    std::string predicate;
    QREL_RETURN_IF_ERROR(r.String(&predicate));
    auto it = idb->find(predicate);
    if (it == idb->end()) {
      return Status::DataLoss("snapshot IDB holds unknown predicate '" +
                              predicate + "'");
    }
    auto arity_it = arity.find(predicate);
    if (arity_it == arity.end()) {
      return Status::DataLoss("snapshot IDB predicate '" + predicate +
                              "' has no recorded arity");
    }
    uint32_t tuple_count = 0;
    QREL_RETURN_IF_ERROR(r.U32(&tuple_count));
    for (uint32_t t = 0; t < tuple_count; ++t) {
      Tuple tuple;
      QREL_RETURN_IF_ERROR(r.TupleVal(&tuple));
      if (tuple.size() != static_cast<size_t>(arity_it->second)) {
        return Status::DataLoss("snapshot IDB tuple arity mismatch for '" +
                                predicate + "'");
      }
      for (Element element : tuple) {
        if (element < 0 || element >= universe_size) {
          return Status::DataLoss(
              "snapshot IDB tuple element out of range for '" + predicate +
              "'");
        }
      }
      it->second.insert(std::move(tuple));
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<CompiledDatalog> CompiledDatalog::Compile(
    DatalogProgram program, const Vocabulary& edb_vocabulary) {
  static std::atomic<uint64_t> next_id{1};
  CompiledDatalog compiled;
  compiled.edb_vocabulary_ = &edb_vocabulary;
  compiled.id_ = next_id.fetch_add(1, std::memory_order_relaxed);

  // IDB predicates and arities (consistent across all uses).
  std::vector<std::string> idb = program.IdbPredicates();
  for (const std::string& predicate : idb) {
    if (edb_vocabulary.FindRelation(predicate).has_value()) {
      return Status::InvalidArgument(
          "predicate '" + predicate +
          "' is both intensional (appears in a rule head) and extensional");
    }
  }
  auto is_idb = [&idb](const std::string& name) {
    return std::find(idb.begin(), idb.end(), name) != idb.end();
  };
  auto record_arity = [&compiled](const std::string& name,
                                  int arity) -> Status {
    auto [it, inserted] = compiled.idb_arity_.emplace(name, arity);
    if (!inserted && it->second != arity) {
      return Status::InvalidArgument("inconsistent arity for predicate '" +
                                     name + "'");
    }
    return Status::Ok();
  };

  for (const DatalogRule& rule : program.rules) {
    QREL_RETURN_IF_ERROR(record_arity(
        rule.head.relation, static_cast<int>(rule.head.args.size())));
    for (const DatalogLiteral& literal : rule.body) {
      const std::string& name = literal.atom.relation;
      int arity = static_cast<int>(literal.atom.args.size());
      if (is_idb(name)) {
        QREL_RETURN_IF_ERROR(record_arity(name, arity));
      } else {
        std::optional<int> relation = edb_vocabulary.FindRelation(name);
        if (!relation.has_value()) {
          return Status::InvalidArgument("unknown extensional predicate '" +
                                         name + "'");
        }
        if (edb_vocabulary.relation(*relation).arity != arity) {
          return Status::InvalidArgument("arity mismatch for predicate '" +
                                         name + "'");
        }
      }
    }
  }

  // Stratification by relaxation: stratum(head) >= stratum(positive IDB
  // body atom) and >= stratum(negated IDB body atom) + 1.
  for (const std::string& predicate : idb) {
    compiled.idb_stratum_[predicate] = 0;
  }
  int idb_count = static_cast<int>(idb.size());
  bool changed = true;
  for (int round = 0; changed && round <= idb_count * idb_count + 1;
       ++round) {
    changed = false;
    for (const DatalogRule& rule : program.rules) {
      int& head_stratum = compiled.idb_stratum_[rule.head.relation];
      for (const DatalogLiteral& literal : rule.body) {
        if (!is_idb(literal.atom.relation)) {
          continue;
        }
        int required = compiled.idb_stratum_[literal.atom.relation] +
                       (literal.positive ? 0 : 1);
        if (head_stratum < required) {
          head_stratum = required;
          changed = true;
          if (head_stratum > idb_count) {
            return Status::InvalidArgument(
                "program is not stratified: predicate '" +
                rule.head.relation + "' depends negatively on itself");
          }
        }
      }
    }
  }
  for (const auto& [predicate, stratum] : compiled.idb_stratum_) {
    compiled.stratum_count_ =
        std::max(compiled.stratum_count_, stratum + 1);
  }
  compiled.idb_predicates_ = idb;
  std::stable_sort(compiled.idb_predicates_.begin(),
                   compiled.idb_predicates_.end(),
                   [&compiled](const std::string& a, const std::string& b) {
                     return compiled.idb_stratum_.at(a) <
                            compiled.idb_stratum_.at(b);
                   });
  for (size_t id = 0; id < compiled.idb_predicates_.size(); ++id) {
    const std::string& predicate = compiled.idb_predicates_[id];
    compiled.idb_id_[predicate] = static_cast<int>(id);
    compiled.max_arity_ =
        std::max(compiled.max_arity_, compiled.idb_arity_.at(predicate));
  }
  for (int r = 0; r < edb_vocabulary.relation_count(); ++r) {
    compiled.max_arity_ =
        std::max(compiled.max_arity_, edb_vocabulary.relation(r).arity);
  }

  // Per-rule compilation: variable slots, safety, body reordering.
  for (const DatalogRule& rule : program.rules) {
    CompiledRule compiled_rule;
    compiled_rule.head = compiled.idb_id_.at(rule.head.relation);
    compiled_rule.stratum = compiled.idb_stratum_.at(rule.head.relation);

    std::vector<std::string> variables;
    auto slot_of = [&variables](const Term& term) {
      auto it = std::find(variables.begin(), variables.end(), term.variable);
      if (it == variables.end()) {
        variables.push_back(term.variable);
        return static_cast<int>(variables.size()) - 1;
      }
      return static_cast<int>(it - variables.begin());
    };
    auto compile_args = [&](const std::vector<Term>& args,
                            std::vector<int>* slots,
                            std::vector<Element>* constants) {
      for (const Term& term : args) {
        if (term.is_variable()) {
          slots->push_back(slot_of(term));
          constants->push_back(0);
        } else {
          slots->push_back(-1);
          constants->push_back(term.constant);
        }
      }
    };

    // Positive body literals bind variables; compile them first so
    // negative literals always see fully bound arguments.
    std::vector<const DatalogLiteral*> ordered;
    for (const DatalogLiteral& literal : rule.body) {
      if (literal.positive) ordered.push_back(&literal);
    }
    size_t positive_count = ordered.size();
    for (const DatalogLiteral& literal : rule.body) {
      if (!literal.positive) ordered.push_back(&literal);
    }

    std::vector<std::string> positive_variables;
    for (size_t i = 0; i < ordered.size(); ++i) {
      const DatalogLiteral& literal = *ordered[i];
      CompiledLiteral compiled_literal;
      compiled_literal.positive = literal.positive;
      compiled_literal.is_idb = is_idb(literal.atom.relation);
      if (compiled_literal.is_idb) {
        compiled_literal.idb = compiled.idb_id_.at(literal.atom.relation);
        compiled_literal.same_stratum_idb =
            literal.positive &&
            compiled.idb_stratum_.at(literal.atom.relation) ==
                compiled_rule.stratum;
      } else {
        compiled_literal.edb_relation =
            *edb_vocabulary.FindRelation(literal.atom.relation);
      }
      compile_args(literal.atom.args, &compiled_literal.slots,
                   &compiled_literal.constants);
      if (i < positive_count) {
        for (const Term& term : literal.atom.args) {
          if (term.is_variable()) {
            positive_variables.push_back(term.variable);
          }
        }
      }
      compiled_rule.body.push_back(std::move(compiled_literal));
    }

    // Safety: head and negated variables must occur positively.
    auto bound_positively = [&positive_variables](const std::string& name) {
      return std::find(positive_variables.begin(), positive_variables.end(),
                       name) != positive_variables.end();
    };
    for (const Term& term : rule.head.args) {
      if (term.is_variable() && !bound_positively(term.variable)) {
        return Status::InvalidArgument(
            "unsafe rule (head variable '" + term.variable +
            "' not bound by a positive body literal): " + rule.ToString());
      }
    }
    for (const DatalogLiteral& literal : rule.body) {
      if (literal.positive) continue;
      for (const Term& term : literal.atom.args) {
        if (term.is_variable() && !bound_positively(term.variable)) {
          return Status::InvalidArgument(
              "unsafe rule (negated variable '" + term.variable +
              "' not bound by a positive body literal): " + rule.ToString());
        }
      }
    }

    compile_args(rule.head.args, &compiled_rule.head_slots,
                 &compiled_rule.head_constants);
    compiled_rule.variable_count = static_cast<int>(variables.size());
    compiled.max_variables_ =
        std::max(compiled.max_variables_, compiled_rule.variable_count);
    compiled.PlanJoin(&compiled_rule);
    compiled.rules_.push_back(std::move(compiled_rule));
  }

  compiled.program_ = std::move(program);
  return compiled;
}

void CompiledDatalog::PlanJoin(CompiledRule* rule) {
  std::vector<bool> bound(static_cast<size_t>(rule->variable_count), false);
  for (CompiledLiteral& literal : rule->body) {
    std::vector<int> first_position(bound.size(), -1);
    for (size_t i = 0; i < literal.slots.size(); ++i) {
      int position = static_cast<int>(i);
      int slot = literal.slots[i];
      if (slot < 0 || bound[static_cast<size_t>(slot)]) {
        literal.key_positions.push_back(position);
      } else if (first_position[static_cast<size_t>(slot)] < 0) {
        first_position[static_cast<size_t>(slot)] = position;
        literal.binds.emplace_back(position, slot);
      } else {
        literal.repeats.emplace_back(position,
                                     first_position[static_cast<size_t>(slot)]);
      }
    }
    literal.all_bound = literal.binds.empty();
    for (const auto& [position, slot] : literal.binds) {
      bound[static_cast<size_t>(slot)] = true;
    }
    if (!literal.positive || literal.all_bound) {
      continue;  // a membership test (negated literals are all bound)
    }
    if (!literal.is_idb &&
        std::find(scanned_edb_.begin(), scanned_edb_.end(),
                  literal.edb_relation) == scanned_edb_.end()) {
      scanned_edb_.push_back(literal.edb_relation);
    }
    if (literal.key_positions.empty()) {
      continue;  // scans the whole relation
    }
    IndexSpec spec{literal.is_idb,
                   literal.is_idb ? literal.idb : literal.edb_relation,
                   literal.key_positions};
    auto same = std::find_if(
        index_specs_.begin(), index_specs_.end(), [&](const IndexSpec& s) {
          return s.is_idb == spec.is_idb && s.relation == spec.relation &&
                 s.key_positions == spec.key_positions;
        });
    literal.index = static_cast<int>(same - index_specs_.begin());
    if (same == index_specs_.end()) {
      index_specs_.push_back(std::move(spec));
    }
  }
}

void CompiledDatalog::ResetWorkspace(DatalogWorkspace* ws) const {
  if (ws->program_id_ != id_) {
    ws->program_id_ = id_;
    ws->idb_.assign(idb_predicates_.size(), {});
    for (size_t id = 0; id < idb_predicates_.size(); ++id) {
      const std::string& predicate = idb_predicates_[id];
      ws->idb_[id].tuples.Reset(idb_arity_.at(predicate));
      ws->idb_[id].stratum = idb_stratum_.at(predicate);
    }
    ws->edb_.assign(static_cast<size_t>(edb_vocabulary_->relation_count()),
                    FlatTupleSet());
    ws->indexes_.assign(index_specs_.size(), TupleIndex());
    for (size_t i = 0; i < index_specs_.size(); ++i) {
      ws->indexes_[i].Reset(index_specs_[i].key_positions);
    }
    ws->binding_.assign(static_cast<size_t>(max_variables_), 0);
    ws->key_.assign(static_cast<size_t>(max_arity_), 0);
    ws->probe_.reserve(static_cast<size_t>(max_arity_));
  }
  for (DatalogWorkspace::Relation& relation : ws->idb_) {
    relation.tuples.Reset(relation.tuples.arity());
    relation.delta_begin = 0;
    relation.limit = 0;
  }
  for (TupleIndex& index : ws->indexes_) {
    index.Clear();
  }
}

void CompiledDatalog::LoadExtensional(const AtomOracle& edb,
                                      DatalogWorkspace* ws) const {
  for (int relation : scanned_edb_) {
    const auto arity =
        static_cast<size_t>(edb_vocabulary_->relation(relation).arity);
    FlatTupleSet& tuples = ws->edb_[static_cast<size_t>(relation)];
    tuples.Reset(static_cast<int>(arity));
    ws->candidates_.clear();
    edb.AppendCandidates(relation, &ws->candidates_);
    for (size_t at = 0; at < ws->candidates_.size(); at += arity) {
      const Element* candidate = ws->candidates_.data() + at;
      ws->probe_.assign(candidate, candidate + arity);
      if (edb.AtomTrue(relation, ws->probe_)) {
        tuples.Insert(candidate);
      }
    }
  }
  for (size_t i = 0; i < index_specs_.size(); ++i) {
    if (!index_specs_[i].is_idb) {
      ws->indexes_[i].CatchUp(
          ws->edb_[static_cast<size_t>(index_specs_[i].relation)]);
    }
  }
}

bool CompiledDatalog::AdvanceRound(int stratum, DatalogWorkspace* ws) const {
  bool any_delta = false;
  for (DatalogWorkspace::Relation& relation : ws->idb_) {
    if (relation.stratum != stratum) {
      continue;
    }
    relation.delta_begin = relation.limit;
    relation.limit = relation.tuples.size();
    any_delta = any_delta || relation.delta_begin < relation.limit;
  }
  for (size_t i = 0; i < index_specs_.size(); ++i) {
    if (index_specs_[i].is_idb) {
      ws->indexes_[i].CatchUp(
          ws->idb_[static_cast<size_t>(index_specs_[i].relation)].tuples);
    }
  }
  return any_delta;
}

Status CompiledDatalog::Join(const CompiledRule& rule, size_t literal_index,
                             int delta_index, const AtomOracle& edb,
                             DatalogWorkspace* ws, RunContext* ctx) const {
  QREL_RETURN_IF_ERROR(ChargeWork(ctx));
  Element* binding = ws->binding_.data();
  if (literal_index == rule.body.size()) {
    // Body satisfied: insert the head tuple (safety guarantees all head
    // slots are bound). A new tuple joins the next round's delta.
    Element* head = ws->key_.data();
    for (size_t i = 0; i < rule.head_slots.size(); ++i) {
      int slot = rule.head_slots[i];
      head[i] = slot < 0 ? rule.head_constants[i]
                         : binding[static_cast<size_t>(slot)];
    }
    ws->idb_[static_cast<size_t>(rule.head)].tuples.Insert(head);
    return Status::Ok();
  }

  const CompiledLiteral& literal = rule.body[literal_index];
  const bool restricted = static_cast<int>(literal_index) == delta_index;
  if (literal.all_bound) {
    // A membership test: negated literals (compile-time safety binds all
    // their arguments) and positive ones with nothing left to bind.
    bool holds;
    if (literal.is_idb) {
      Element* key = ws->key_.data();
      for (size_t i = 0; i < literal.slots.size(); ++i) {
        int slot = literal.slots[i];
        key[i] = slot < 0 ? literal.constants[i]
                          : binding[static_cast<size_t>(slot)];
      }
      const DatalogWorkspace::Relation& relation =
          ws->idb_[static_cast<size_t>(literal.idb)];
      uint32_t id = relation.tuples.Find(key);
      holds = id < relation.limit &&
              (!restricted || id >= relation.delta_begin);
    } else {
      ws->probe_.resize(literal.slots.size());
      for (size_t i = 0; i < literal.slots.size(); ++i) {
        int slot = literal.slots[i];
        ws->probe_[i] = slot < 0 ? literal.constants[i]
                                 : binding[static_cast<size_t>(slot)];
      }
      holds = edb.AtomTrue(literal.edb_relation, ws->probe_);
    }
    if (holds != literal.positive) {
      return Status::Ok();
    }
    return Join(rule, literal_index + 1, delta_index, edb, ws, ctx);
  }

  // A positive literal with variables to bind: iterate its relation's
  // visible tuples (the delta, when restricted), through the index on the
  // key positions when it has any.
  const FlatTupleSet* tuples;
  uint32_t begin = 0;
  uint32_t end;
  if (literal.is_idb) {
    const DatalogWorkspace::Relation& relation =
        ws->idb_[static_cast<size_t>(literal.idb)];
    tuples = &relation.tuples;
    begin = restricted ? relation.delta_begin : 0;
    end = relation.limit;
  } else {
    tuples = &ws->edb_[static_cast<size_t>(literal.edb_relation)];
    end = tuples->size();
  }
  // Binds the literal's variables from tuple `id` and recurses. The tuple
  // is read before the recursion, whose head inserts may move it.
  auto accept = [&](uint32_t id) -> Status {
    const Element* tuple = tuples->tuple(id);
    for (const auto& [position, earlier] : literal.repeats) {
      if (tuple[position] != tuple[earlier]) {
        return Status::Ok();
      }
    }
    for (const auto& [position, slot] : literal.binds) {
      binding[static_cast<size_t>(slot)] = tuple[position];
    }
    return Join(rule, literal_index + 1, delta_index, edb, ws, ctx);
  };
  if (literal.index < 0) {
    for (uint32_t id = begin; id < end; ++id) {
      QREL_RETURN_IF_ERROR(accept(id));
    }
    return Status::Ok();
  }
  Element* key = ws->key_.data();
  for (size_t k = 0; k < literal.key_positions.size(); ++k) {
    auto position = static_cast<size_t>(literal.key_positions[k]);
    int slot = literal.slots[position];
    key[k] = slot < 0 ? literal.constants[position]
                      : binding[static_cast<size_t>(slot)];
  }
  const TupleIndex& index = ws->indexes_[static_cast<size_t>(literal.index)];
  // Ids come newest first and the index holds only ids below `end`, so
  // the delta's ids lead the chain.
  for (uint32_t id = index.First(*tuples, key);
       id != TupleIndex::kNone && id >= begin; id = index.Next(id)) {
    QREL_RETURN_IF_ERROR(accept(id));
  }
  return Status::Ok();
}

void CompiledDatalog::WriteRelations(SnapshotWriter& w,
                                     const DatalogWorkspace& ws,
                                     bool delta_only) const {
  // Predicate-name order, as the std::map of a DatalogResult iterates.
  w.U32(static_cast<uint32_t>(idb_id_.size()));
  std::vector<uint32_t> ids;
  Tuple tuple;
  for (const auto& [predicate, id] : idb_id_) {
    const DatalogWorkspace::Relation& relation =
        ws.idb_[static_cast<size_t>(id)];
    w.String(predicate);
    uint32_t begin = delta_only ? relation.delta_begin : 0;
    uint32_t end = delta_only ? relation.limit : relation.tuples.size();
    relation.tuples.SortedIds(begin, end, &ids);
    w.U32(static_cast<uint32_t>(ids.size()));
    for (uint32_t tuple_id : ids) {
      const Element* elements = relation.tuples.tuple(tuple_id);
      tuple.assign(elements, elements + relation.tuples.arity());
      w.TupleVal(tuple);
    }
  }
}

Status CompiledDatalog::LoadRelations(const DatalogResult& idb,
                                      const DatalogResult* delta,
                                      DatalogWorkspace* ws) const {
  static const std::set<Tuple> kNoTuples;
  for (const auto& [predicate, id] : idb_id_) {
    const std::set<Tuple>& all = idb.at(predicate);
    const std::set<Tuple>& fresh =
        delta == nullptr ? kNoTuples : delta->at(predicate);
    DatalogWorkspace::Relation& relation = ws->idb_[static_cast<size_t>(id)];
    // The delta goes last, so it is the id range [delta_begin, limit).
    for (const Tuple& tuple : all) {
      if (fresh.count(tuple) == 0) {
        relation.tuples.Insert(tuple.data());
      }
    }
    relation.delta_begin = relation.tuples.size();
    for (const Tuple& tuple : fresh) {
      if (all.count(tuple) == 0) {
        return Status::DataLoss("snapshot delta tuple of '" + predicate +
                                "' is missing from its relation");
      }
      relation.tuples.Insert(tuple.data());
    }
    relation.limit = relation.tuples.size();
  }
  for (size_t i = 0; i < index_specs_.size(); ++i) {
    if (index_specs_[i].is_idb) {
      ws->indexes_[i].CatchUp(
          ws->idb_[static_cast<size_t>(index_specs_[i].relation)].tuples);
    }
  }
  return Status::Ok();
}

Status CompiledDatalog::Run(const AtomOracle& edb, DatalogWorkspace* ws,
                            RunContext* ctx) const {
  // Checkpoints at stratum entry and at every semi-naive round boundary:
  // the derived-atom frontier (idb + delta) at those points fully
  // determines the rest of the fixpoint. Inert when a world loop above
  // already claimed the scope (datalog/reliability.cc).
  //
  // The content digest (program text + full EDB relation contents) is
  // computed only when this scope would actually claim: hashing the EDB
  // costs Θ(n^arity) per relation through the oracle, and the per-world
  // fixpoints under a claimed world loop must not pay that per world.
  Fingerprint fingerprint;
  if (CheckpointScope::WouldClaim(ctx)) {
    fingerprint.Mix("datalog.fixpoint")
        .Mix(program_.ToString())
        .Mix(static_cast<uint64_t>(edb.universe_size()));
    const Vocabulary& vocab = edb.vocabulary();
    fingerprint.Mix(static_cast<uint64_t>(vocab.relation_count()));
    for (int r = 0; r < vocab.relation_count(); ++r) {
      const RelationSymbol& symbol = vocab.relation(r);
      fingerprint.Mix(symbol.name);
      fingerprint.Mix(static_cast<uint64_t>(symbol.arity));
      if (symbol.arity > 0 && edb.universe_size() == 0) {
        continue;  // no ground atoms to digest
      }
      // Pack the relation's truth table into 64-bit words; tuple
      // enumeration order is deterministic (odometer order).
      Tuple probe(static_cast<size_t>(symbol.arity), 0);
      uint64_t word = 0;
      int bit = 0;
      do {
        if (edb.AtomTrue(r, probe)) {
          word |= uint64_t{1} << bit;
        }
        if (++bit == 64) {
          fingerprint.Mix(word);
          word = 0;
          bit = 0;
        }
      } while (AdvanceTuple(&probe, edb.universe_size()));
      if (bit != 0) {
        fingerprint.Mix(word);
      }
    }
  }
  CheckpointScope checkpoint(ctx, "datalog.fixpoint.v1", fingerprint.value());

  ResetWorkspace(ws);
  LoadExtensional(edb, ws);
  int start_stratum = 0;
  bool resume_in_round = false;
  {
    std::optional<SnapshotReader> resume;
    QREL_RETURN_IF_ERROR(checkpoint.TakeResume(&resume));
    if (resume.has_value()) {
      uint32_t stratum = 0;
      uint8_t in_round = 0;
      QREL_RETURN_IF_ERROR(resume->U32(&stratum));
      QREL_RETURN_IF_ERROR(resume->U8(&in_round));
      if (stratum >= static_cast<uint32_t>(stratum_count_)) {
        return Status::DataLoss("snapshot stratum out of range");
      }
      DatalogResult idb;
      DatalogResult delta;
      for (const std::string& predicate : idb_predicates_) {
        idb[predicate] = {};
        delta[predicate] = {};
      }
      QREL_RETURN_IF_ERROR(
          ReadIdb(*resume, idb_arity_, edb.universe_size(), &idb));
      if (in_round != 0) {
        QREL_RETURN_IF_ERROR(
            ReadIdb(*resume, idb_arity_, edb.universe_size(), &delta));
        resume_in_round = true;
      }
      QREL_RETURN_IF_ERROR(resume->ExpectEnd());
      QREL_RETURN_IF_ERROR(
          LoadRelations(idb, resume_in_round ? &delta : nullptr, ws));
      start_stratum = static_cast<int>(stratum);
    }
  }

  for (int stratum = start_stratum; stratum < stratum_count_; ++stratum) {
    if (resume_in_round) {
      // The interrupted run already finished this stratum's seed round and
      // some semi-naive rounds; re-enter the round loop with its frontier.
      resume_in_round = false;
    } else {
      if (checkpoint.CheckpointDue()) {
        QREL_RETURN_IF_ERROR(checkpoint.CheckpointNow([&](SnapshotWriter& w) {
          w.U32(static_cast<uint32_t>(stratum));
          w.U8(0);
          WriteRelations(w, *ws, /*delta_only=*/false);
        }));
      }
      QREL_FAULT_SITE("datalog.fixpoint.round");
      // Round 0: full evaluation seeds the delta (also the only round for
      // rules with no same-stratum recursion).
      AdvanceRound(stratum, ws);
      for (const CompiledRule& rule : rules_) {
        if (rule.stratum == stratum) {
          QREL_RETURN_IF_ERROR(Join(rule, 0, -1, edb, ws, ctx));
        }
      }
      AdvanceRound(stratum, ws);
    }

    // Semi-naive rounds: each recursive rule re-fires once per
    // same-stratum positive IDB literal, with that literal restricted to
    // the previous delta.
    bool any_delta = true;
    while (any_delta) {
      QREL_FAULT_SITE("datalog.fixpoint.round");
      for (const CompiledRule& rule : rules_) {
        if (rule.stratum != stratum) {
          continue;
        }
        for (size_t i = 0; i < rule.body.size(); ++i) {
          const CompiledLiteral& literal = rule.body[i];
          if (!literal.same_stratum_idb) {
            continue;
          }
          const DatalogWorkspace::Relation& relation =
              ws->idb_[static_cast<size_t>(literal.idb)];
          if (relation.delta_begin == relation.limit) {
            continue;
          }
          QREL_RETURN_IF_ERROR(
              Join(rule, 0, static_cast<int>(i), edb, ws, ctx));
        }
      }
      any_delta = AdvanceRound(stratum, ws);
      if (any_delta && checkpoint.CheckpointDue()) {
        QREL_RETURN_IF_ERROR(checkpoint.CheckpointNow([&](SnapshotWriter& w) {
          w.U32(static_cast<uint32_t>(stratum));
          w.U8(1);
          WriteRelations(w, *ws, /*delta_only=*/false);
          WriteRelations(w, *ws, /*delta_only=*/true);
        }));
      }
    }
  }
  return Status::Ok();
}

StatusOr<DatalogResult> CompiledDatalog::Eval(const AtomOracle& edb,
                                              RunContext* ctx) const {
  DatalogWorkspace workspace;
  QREL_RETURN_IF_ERROR(Run(edb, &workspace, ctx));
  DatalogResult idb;
  for (size_t id = 0; id < idb_predicates_.size(); ++id) {
    idb[idb_predicates_[id]] = workspace.idb_[id].tuples.ToSet();
  }
  return idb;
}

StatusOr<std::set<Tuple>> CompiledDatalog::EvalPredicate(
    const AtomOracle& edb, const std::string& predicate,
    RunContext* ctx) const {
  DatalogWorkspace workspace;
  StatusOr<const FlatTupleSet*> answer =
      EvalPredicateInto(edb, predicate, &workspace, ctx);
  if (!answer.ok()) {
    return answer.status();
  }
  return (*answer)->ToSet();
}

StatusOr<const FlatTupleSet*> CompiledDatalog::EvalPredicateInto(
    const AtomOracle& edb, const std::string& predicate,
    DatalogWorkspace* workspace, RunContext* ctx) const {
  auto id = idb_id_.find(predicate);
  if (id != idb_id_.end()) {
    QREL_RETURN_IF_ERROR(Run(edb, workspace, ctx));
    return &workspace->idb_[static_cast<size_t>(id->second)].tuples;
  }
  std::optional<int> relation = edb_vocabulary_->FindRelation(predicate);
  if (!relation.has_value()) {
    return Status::NotFound("unknown predicate '" + predicate + "'");
  }
  // Materialize the extensional relation through the oracle.
  int arity = edb_vocabulary_->relation(*relation).arity;
  FlatTupleSet& contents = workspace->answer_;
  contents.Reset(arity);
  Tuple& tuple = workspace->probe_;
  tuple.assign(static_cast<size_t>(arity), 0);
  do {
    QREL_RETURN_IF_ERROR(ChargeWork(ctx));
    if (edb.AtomTrue(*relation, tuple)) {
      contents.Insert(tuple.data());
    }
  } while (AdvanceTuple(&tuple, edb.universe_size()));
  return &contents;
}

StatusOr<int> CompiledDatalog::PredicateStratum(
    const std::string& predicate) const {
  auto it = idb_stratum_.find(predicate);
  if (it == idb_stratum_.end()) {
    return Status::NotFound("no intensional predicate '" + predicate + "'");
  }
  return it->second;
}

StatusOr<int> CompiledDatalog::PredicateArity(
    const std::string& predicate) const {
  auto it = idb_arity_.find(predicate);
  if (it != idb_arity_.end()) {
    return it->second;
  }
  std::optional<int> relation = edb_vocabulary_->FindRelation(predicate);
  if (!relation.has_value()) {
    return Status::NotFound("unknown predicate '" + predicate + "'");
  }
  return edb_vocabulary_->relation(*relation).arity;
}

}  // namespace qrel
