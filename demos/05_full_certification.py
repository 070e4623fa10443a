"""The end-to-end pipelines: certify, report, and independently re-verify.

Produces the full perfect-Morse certificate for the 6-polytope and the
fibration certificate for the 5-polytope, then replays every piece of
evidence from the structured report with zero search.
"""

import json
from collections import Counter

from morsecert.certify import certify_p5, certify_p6
from morsecert.report import certificate_to_document, document_to_json, emit_report
from morsecert.verify import verify_document

cert = certify_p6()
print(cert.summary_line())
# from the bad rows' outcomes; every good row of the plan is Regular
classes = Counter(verdict for verdict, _ in cert.outcomes)
classes["Regular"] += len(cert.S.plan) - len(cert.outcomes)
print("verdict classes:", dict(sorted(classes.items())))
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
