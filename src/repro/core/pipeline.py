"""The phase names of Figure 3's data flow.

Per-phase timing and item counts live on the search's one
:class:`~repro.telemetry.QueryProfile` (``engine.last_profile``).
"""

PHASE_PARSE = "query_parse"
PHASE_CANDIDATES = "candidate_extraction"
PHASE_MATCHING = "schema_matching"
PHASE_TIGHTNESS = "tightness_of_fit"

ALL_PHASES = (PHASE_PARSE, PHASE_CANDIDATES, PHASE_MATCHING, PHASE_TIGHTNESS)
