"""The end-to-end pipelines: certify, report, and independently re-verify.

Produces the full perfect-Morse certificate for the 6-polytope and the
fibration certificate for the 5-polytope, then replays every piece of
evidence from the structured report with zero search.
"""

import json
from collections import Counter

from morsecert import certify_p5, certify_p6, emit_report, verify_document
from morsecert.report import certificate_to_document, document_to_json

cert = certify_p6()
print(cert.summary_line())
print("verdict classes:", dict(Counter(r["verdict"] for r in cert.verdict_rows)))
print("evidence blobs:", len(cert.evidence), "+", len(cert.shared_evidence),
      "shared collapse certificates")
print("consistency identity: chi per copy =", cert.euler.chi_per_copy,
      "= -", cert.euler.critical_per_copy)

doc = json.loads(document_to_json(certificate_to_document(cert)))
ok, messages = verify_document(doc)
print("independent replay of the whole report:", "ok" if ok else messages[:3])

cert5 = certify_p5()
print("\n" + cert5.summary_line())
print(emit_report(cert5, "text").split("-- verdicts --")[1].split("--")[0])
