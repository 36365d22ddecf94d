#include "qrel/relational/structure.h"

#include <utility>

#include "qrel/util/check.h"

namespace qrel {

bool AdvanceTuple(Tuple* tuple, int universe_size) {
  QREL_CHECK_GT(universe_size, 0);
  for (size_t i = tuple->size(); i-- > 0;) {
    if ((*tuple)[i] + 1 < universe_size) {
      ++(*tuple)[i];
      for (size_t j = i + 1; j < tuple->size(); ++j) {
        (*tuple)[j] = 0;
      }
      return true;
    }
  }
  return false;
}

std::vector<Tuple> AllTuples(int n, int k) {
  std::vector<Tuple> result;
  Tuple tuple(static_cast<size_t>(k), 0);
  do {
    result.push_back(tuple);
  } while (AdvanceTuple(&tuple, n));
  return result;
}

Structure::Structure(std::shared_ptr<const Vocabulary> vocabulary,
                     int universe_size)
    : vocabulary_(std::move(vocabulary)), universe_size_(universe_size) {
  QREL_CHECK(vocabulary_ != nullptr);
  QREL_CHECK_GT(universe_size_, 0);
  relations_.resize(static_cast<size_t>(vocabulary_->relation_count()));
}

void Structure::CheckTuple(int relation_id, const Tuple& tuple) const {
  QREL_CHECK_GE(relation_id, 0);
  QREL_CHECK_LT(relation_id, vocabulary_->relation_count());
  QREL_CHECK_EQ(static_cast<int>(tuple.size()),
                vocabulary_->relation(relation_id).arity);
  for (Element e : tuple) {
    QREL_CHECK_GE(e, 0);
    QREL_CHECK_LT(e, universe_size_);
  }
}

void Structure::AddFact(int relation_id, const Tuple& tuple) {
  CheckTuple(relation_id, tuple);
  relations_[static_cast<size_t>(relation_id)].insert(tuple);
}

void Structure::SetFact(int relation_id, const Tuple& tuple, bool value) {
  CheckTuple(relation_id, tuple);
  if (value) {
    relations_[static_cast<size_t>(relation_id)].insert(tuple);
  } else {
    relations_[static_cast<size_t>(relation_id)].erase(tuple);
  }
}

void AtomOracle::AppendCandidates(int relation_id,
                                  std::vector<Element>* out) const {
  int n = universe_size();
  if (n == 0) {
    return;
  }
  Tuple tuple(static_cast<size_t>(vocabulary().relation(relation_id).arity),
              0);
  do {
    out->insert(out->end(), tuple.begin(), tuple.end());
  } while (AdvanceTuple(&tuple, n));
}

void Structure::AppendCandidates(int relation_id,
                                 std::vector<Element>* out) const {
  for (const Tuple& fact : Facts(relation_id)) {
    out->insert(out->end(), fact.begin(), fact.end());
  }
}

bool Structure::AtomTrue(int relation_id, const Tuple& tuple) const {
  CheckTuple(relation_id, tuple);
  const std::set<Tuple>& facts = relations_[static_cast<size_t>(relation_id)];
  return facts.find(tuple) != facts.end();
}

const std::set<Tuple>& Structure::Facts(int relation_id) const {
  QREL_CHECK_GE(relation_id, 0);
  QREL_CHECK_LT(relation_id, vocabulary_->relation_count());
  return relations_[static_cast<size_t>(relation_id)];
}

size_t Structure::FactCount() const {
  size_t count = 0;
  for (const std::set<Tuple>& facts : relations_) {
    count += facts.size();
  }
  return count;
}

bool Structure::operator==(const Structure& other) const {
  return universe_size_ == other.universe_size_ &&
         relations_ == other.relations_;
}

}  // namespace qrel
