"""Search-as-you-design with a learning loop.

The paper's OpenII integration sketch: "integrating Schemr with a schema
editor would allow for a new model development process, in which search
results are iteratively used to augment a schema", while recorded search
histories train the matcher weighting scheme.

This example simulates that loop: a designer grows a retail 'order'
schema over three iterations, clicking the results that helped.  Each
search lands in a JSONL search history with its clicks marked; that
history then trains the logistic-regression meta-learner and the
learned weights replace the uniform scheme.

Run:  python examples/schema_design_assistant.py
"""

import tempfile
from pathlib import Path

from repro import MatcherEnsemble, SchemaRepository
from repro.corpus.filters import paper_filter
from repro.corpus.generator import CorpusGenerator
from repro.errors import MatchError
from repro.telemetry.history import SearchHistorySink
from repro.workload.train import train_weights

CORPUS_SIZE = 1500

ITERATIONS = [
    # (draft DDL, what the designer is looking for this round)
    ("""CREATE TABLE "order" (
          order_id INTEGER PRIMARY KEY,
          order_date DATE
        );""",
     "order status amount"),
    ("""CREATE TABLE "order" (
          order_id INTEGER PRIMARY KEY,
          order_date DATE,
          status VARCHAR(20),
          total_amount DECIMAL(10,2)
        );""",
     "customer shipping address"),
    ("""CREATE TABLE "order" (
          order_id INTEGER PRIMARY KEY,
          order_date DATE,
          status VARCHAR(20),
          total_amount DECIMAL(10,2),
          customer_id INTEGER,
          shipping_cost DECIMAL(8,2)
        );""",
     "order item quantity unit price"),
]


def main() -> None:
    generator = CorpusGenerator(seed=7)
    stats = paper_filter(generator.generate_raw_stream(CORPUS_SIZE))
    repo = SchemaRepository.in_memory()
    for generated in stats.kept:
        repo.add_schema(generated.schema)
    engine = repo.engine()
    print(f"repository: {repo.schema_count} schemas\n")

    with tempfile.TemporaryDirectory() as scratch:
        history_path = Path(scratch) / "history.jsonl"

        # --- the design loop, recording history as the designer clicks
        with SearchHistorySink(history_path) as history:
            for round_number, (draft, keywords) in enumerate(ITERATIONS,
                                                             start=1):
                print(f"iteration {round_number}: draft has "
                      f"{draft.count(',') + 1} columns; searching "
                      f"{keywords!r} + draft")
                results = engine.search(keywords=keywords, fragment=draft,
                                        top_n=5)
                # The designer clicks helpful results near the top;
                # deeper results they scrolled past count as implicit
                # negatives.
                clicked = {result.schema_id
                           for rank, result in enumerate(results, start=1)
                           if rank <= 2 and "retail" in result.name}
                history.record(keywords.split(), results,
                               clicked_ids=clicked)
                for result in results:
                    marker = "*" if result.schema_id in clicked else " "
                    print(f"   {marker} {result.name:<40} "
                          f"score={result.score:.4f}")
                print()

        # --- train the meta-learner on what was recorded ----------------
        try:
            _, report = train_weights(SearchHistorySink.load(history_path),
                                      repo, engine.ensemble)
        except MatchError as exc:
            print(f"history cannot train the learner ({exc}); "
                  f"keeping uniform weights")
            repo.close()
            return
    print(f"recorded history: {report.summary()}\n")

    # --- the next session starts with the learned scheme --------------
    tuned = MatcherEnsemble.default()
    tuned.set_weights(report.weights)
    tuned_engine = repo.engine(ensemble=tuned)
    final_draft, final_keywords = ITERATIONS[-1]
    print("re-running the last query with learned weights:")
    for result in tuned_engine.search(keywords=final_keywords,
                                      fragment=final_draft, top_n=3):
        print(f"   {result.name:<40} score={result.score:.4f}")
    repo.close()


if __name__ == "__main__":
    main()
