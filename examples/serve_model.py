"""Train once, serve anywhere — including over HTTP.

Run twice to see the artifact store at work::

    PYTHONPATH=src python examples/serve_model.py
    PYTHONPATH=src python examples/serve_model.py   # reuses, no retraining

Equivalent CLI: ``repro train --scale smoke`` then
``repro predict 505.mcf --scale smoke --evaluate`` then
``repro serve --scale smoke --port 8080``.
"""

import json
import threading
import urllib.request

from repro.api import Session, predicted_times_row
from repro.serving import PredictionCluster, ServeRequest, make_server

session = Session(scale="smoke")

result = session.train()  # loads the stored artifact when one matches
print(f"artifact {result.artifact_id} "
      f"({'reused from store' if result.reused else 'freshly trained'})")

# Pure serving: cached features -> stored model. No simulation.
times = session.predict("505.mcf")
print("505.mcf:", predicted_times_row(times))

# Batched serving: several benchmarks through one no-grad engine pass.
for name, row in session.predict_many(["505.mcf", "519.lbm"]).items():
    print(f"{name} (batched): {predicted_times_row(row)}")

# Against simulated ground truth (505.mcf is an *unseen* program):
for name, summary in session.evaluate(["505.mcf"]).items():
    print(f"{name}: {summary.row()}")

# The same predictions as a service: the dispatcher in front of one
# in-process worker (what `repro serve` runs) + HTTP endpoint.
service = PredictionCluster(workers=0, session=session)
print("service:", service.predict(ServeRequest(benchmark="505.mcf")).times)

server = make_server(service, port=0)  # port=0: pick a free port
port = server.server_address[1]
threading.Thread(target=server.serve_forever, daemon=True).start()

request = urllib.request.Request(
    f"http://127.0.0.1:{port}/v1/predict",
    data=json.dumps({"benchmark": "505.mcf"}).encode(),
    headers={"Content-Type": "application/json"},
)
with urllib.request.urlopen(request, timeout=60) as response:
    payload = json.loads(response.read())
print(f"HTTP :{port} ->", predicted_times_row(payload["times"]))

server.shutdown()
server.server_close()
service.stop()
