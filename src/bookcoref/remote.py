"""HTTP clients for externally hosted annotator services.

Wire protocol (JSON over HTTP):

    POST /link    {"doc_id", "tokens", "characters"}      -> {"clusters": {name: [[s,e],...]}}
    POST /judge   {"prompt", "decoding"}                  -> {"answer": "Yes"|"No"}
    POST /expand  {"tokens", "seeds": {name: [[s,e],...]}} -> {"clusters": {name: [[s,e],...]}}

Spans are 0-based, end-inclusive. Requests carry a fixed decoding
configuration so that services can honour the determinism contract, and
responses are cached on disk keyed by a request hash (directory from the
``cache_dir`` argument or the BOOKCOREF_CACHE_DIR environment variable), so
re-runs replay bit-identically without touching the service. A response that
is not of this shape is a :class:`ContractError` naming the route.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from typing import Iterable, Mapping

import requests

from .errors import ConfigError, ContractError, FinalTransportError, TransportError
from .model import ClusterKey, ClusterSet, Document, Mention
from .pipeline import ExpandRequest, JudgeRequest

CACHE_DIR_ENV = "BOOKCOREF_CACHE_DIR"

#: Fixed decoding settings sent with every judge request.
DECODING = {"temperature": 0.0, "seed": 0}


class ServiceClient:
    """Tiny JSON POST client with bounded retries and a response cache.

    The client is the one retry layer for HTTP components: a request that
    still fails after ``retries`` retries, or that the service rejects with
    a 4xx status, raises :class:`FinalTransportError`, which callers do not
    retry again.

    ``post`` may be called from several threads at once. Unless a
    ``session`` is supplied (and then shared as-is), each thread gets its own
    ``requests.Session``. What ``requests`` would read from the environment
    on every request -- proxies and ``no_proxy``, the CA-bundle variables
    and netrc credentials -- is resolved once, for ``base_url``, when the
    client is built; its own sessions then skip the per-request lookup.
    ``log`` records one entry per call in completion order, which is not
    the call order when several threads post at once.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.25,
        cache_dir: str | None = None,
        session: requests.Session | None = None,
    ):
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.cache_dir = cache_dir if cache_dir is not None else os.environ.get(CACHE_DIR_ENV)
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)
        self.log: list[dict] = []
        self._shared_session = session
        self._local = threading.local()
        with requests.Session() as probe:
            env = probe.merge_environment_settings(self.base_url, {}, None, None, None)
        self._proxies = env["proxies"]
        self._verify = env["verify"]
        self._auth = requests.utils.get_netrc_auth(self.base_url)

    @property
    def session(self) -> requests.Session:
        """The calling thread's session (the supplied one, if any)."""
        if self._shared_session is not None:
            return self._shared_session
        session = getattr(self._local, "session", None)
        if session is None:
            session = requests.Session()
            session.trust_env = False
            session.proxies.update(self._proxies)
            session.verify = self._verify
            session.auth = self._auth
            self._local.session = session
        return session

    def _cache_path(self, digest: str) -> str | None:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, f"{digest}.json")

    def post(self, route: str, payload: dict) -> dict:
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256((route + "\n" + body).encode()).hexdigest()
        path = self._cache_path(digest)
        if path:
            try:
                with open(path, encoding="utf-8") as f:
                    response = json.load(f)
            except (FileNotFoundError, ValueError):
                pass  # a missing, truncated or corrupt entry is a miss; fetch and overwrite
            else:
                self.log.append({"route": route, "request": digest, "cached": True})
                return response

        url = self.base_url + route
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                resp = self.session.post(
                    url, data=body, headers={"Content-Type": "application/json"}, timeout=self.timeout
                )
                if resp.status_code >= 500:
                    last = TransportError(f"{url} returned {resp.status_code}")
                elif resp.status_code >= 400:
                    raise FinalTransportError(f"{url} rejected request: {resp.status_code}")
                else:
                    data = self._decode(resp, route)
                    if path:
                        self._store(path, data)
                    self.log.append({"route": route, "request": digest, "cached": False})
                    return data
            except (requests.ConnectionError, requests.Timeout) as e:
                last = e
            if attempt < self.retries and self.backoff:
                time.sleep(self.backoff * (attempt + 1))
        raise FinalTransportError(f"{url} unreachable after {self.retries + 1} attempts: {last}")

    @staticmethod
    def _decode(resp: requests.Response, route: str) -> dict:
        try:
            data = resp.json()
        except ValueError as e:
            raise ContractError(f"{route}: response is not JSON: {e}") from e
        if not isinstance(data, dict):
            raise ContractError(f"{route}: response must be a JSON object, got {type(data).__name__}")
        return data

    def _store(self, path: str, data: dict) -> None:
        # a unique temp name per write: concurrent writers of one digest
        # each rename a complete file into place
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(data, f)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def _parse_wire_clusters(raw: object, context: str) -> dict[str, list[Mention]]:
    if not isinstance(raw, dict):
        raise ContractError(f"{context}: 'clusters' must be an object")
    out: dict[str, list[Mention]] = {}
    for key, spans in raw.items():
        if not isinstance(spans, list):
            raise ContractError(f"{context}: spans of {key!r} must be an array")
        mentions = []
        for span in spans:
            if not (isinstance(span, list) and len(span) == 2 and all(type(x) is int for x in span)):
                raise ContractError(f"{context}: span {span!r} of {key!r} must be [start, end] integers")
            mentions.append(Mention(span[0], span[1]))
        out[key] = mentions
    return out


class HttpLinker:
    def __init__(self, client: ServiceClient):
        self.client = client
        self.name = f"http:{client.base_url}/link"

    def link(self, doc: Document) -> ClusterSet:
        data = self.client.post(
            "/link",
            {"doc_id": doc.doc_id, "tokens": list(doc.tokens), "characters": list(doc.characters)},
        )
        clusters = _parse_wire_clusters(data.get("clusters"), "/link")
        return ClusterSet.build(doc.doc_id, "initialized", clusters)


class HttpJudge:
    def __init__(self, client: ServiceClient):
        self.client = client
        self.name = f"http:{client.base_url}/judge"

    def judge(self, request: JudgeRequest) -> bool:
        data = self.client.post("/judge", {"prompt": request.prompt, "decoding": DECODING})
        answer = str(data.get("answer", "")).strip().lower()
        if answer == "yes":
            return True
        if answer == "no":
            return False
        raise ContractError(f"/judge returned {data.get('answer')!r}, expected 'Yes' or 'No'")


class HttpExpander:
    def __init__(self, client: ServiceClient):
        self.client = client
        self.name = f"http:{client.base_url}/expand"

    def expand(self, request: ExpandRequest) -> Mapping[ClusterKey, Iterable[Mention]]:
        seeds = {
            str(key): [[m.start, m.end] for m in ms] for key, ms in request.seeds.items()
        }
        data = self.client.post("/expand", {"tokens": list(request.tokens), "seeds": seeds})
        wire = _parse_wire_clusters(data.get("clusters"), "/expand")
        by_name: Mapping[str, ClusterKey] = {str(key): key for key in request.seeds}
        out: dict[ClusterKey, list[Mention]] = {}
        for name, mentions in wire.items():
            out[by_name.get(name, name)] = mentions
        return out
