"""HTTP clients for externally hosted annotator services.

Wire protocol (JSON over HTTP):

    POST /link    {"doc_id", "tokens", "characters"}      -> {"clusters": {name: [[s,e],...]}}
    POST /judge   {"prompt", "decoding"}                  -> {"answer": "Yes"|"No"}
    POST /expand  {"tokens", "seeds": {name: [[s,e],...]}} -> {"clusters": {name: [[s,e],...]}}

Spans are 0-based, end-inclusive; ``/expand`` spans count from the first
token of the window sent (:class:`HttpExpander` re-bases them). Requests
carry a fixed decoding configuration so that services can honour the
determinism contract. A response that is not of this shape is a
:class:`ContractError` naming the route.

The client uses only the standard library: each thread keeps one
keep-alive ``http.client`` connection, and responses are cached in one
SQLite file, ``responses.sqlite3``, in the cache directory (the
``cache_dir`` argument or the BOOKCOREF_CACHE_DIR environment variable).
The cache is keyed by a hash of the route and request body, so re-runs
replay bit-identically without touching the service.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import netrc
import os
import sqlite3
import ssl
import threading
import time
import urllib.parse
import urllib.request
import weakref
from typing import Any, Callable, Iterable, Mapping

from .errors import CacheError, ConfigError, ContractError, TransportError, require_int
from .model import ClusterKey, ClusterSet, Document, Mention, clusters_from_json, clusters_to_json, shift
from .pipeline import ExpandRequest, JudgeRequest

CACHE_DIR_ENV = "BOOKCOREF_CACHE_DIR"
#: The response cache's file inside the cache directory.
CACHE_FILE = "responses.sqlite3"
#: Environment variables naming a CA bundle for HTTPS; the first one set wins.
CA_BUNDLE_ENV = ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE")

#: Fixed decoding settings sent with every judge request.
DECODING = {"temperature": 0.0, "seed": 0}

#: Seconds :class:`ServiceClient` waits before its retry after attempt ``n``: ``BACKOFF_S * n``.
BACKOFF_S = 0.25

#: What one HTTP attempt raises when it fails; the client retries these.
_ATTEMPT_ERRORS = (OSError, http.client.HTTPException)
#: What a keep-alive connection that the peer closed while idle raises.
_DROPPED = (ConnectionResetError, ConnectionAbortedError, BrokenPipeError)


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode("ascii")


def _netrc_auth(host: str) -> tuple[str, str] | None:
    """Credentials for ``host`` from the file named by $NETRC, else
    ``~/.netrc`` or ``~/_netrc``. A file that cannot be read or parsed
    supplies none."""
    names = (os.environ["NETRC"],) if os.environ.get("NETRC") else ("~/.netrc", "~/_netrc")
    for name in names:
        path = os.path.expanduser(name)
        if os.path.exists(path):
            break
    else:
        return None
    try:
        entry = netrc.netrc(path).authenticators(host)
    except (netrc.NetrcParseError, OSError):
        return None
    if entry is None:
        return None
    login, account, password = entry
    return login or account or "", password or ""


def _tls_context() -> ssl.SSLContext:
    bundle = next((os.environ[name] for name in CA_BUNDLE_ENV if os.environ.get(name)), None)
    try:
        if bundle and os.path.isdir(bundle):
            return ssl.create_default_context(capath=bundle)
        return ssl.create_default_context(cafile=bundle)
    except OSError as e:
        raise ConfigError(f"CA bundle {bundle!r}: {e}") from e


class _Holder:
    __slots__ = ("resource", "__weakref__")

    def __init__(self, resource: Any):
        self.resource = resource


class _PerThread:
    """One resource per thread, made by ``make`` on the thread's first
    :meth:`get`. It is closed when its thread ends, as the thread's local
    holder is dropped, or by :meth:`close`, so worker pools that come and go
    leave no sockets or files open."""

    def __init__(self, make: Callable[[], Any]):
        self._make = make
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finalizers: list[weakref.finalize] = []

    def get(self) -> Any:
        holder = getattr(self._local, "holder", None)
        if holder is None:
            resource = self._make()
            holder = self._local.holder = _Holder(resource)
            with self._lock:
                self._finalizers = [f for f in self._finalizers if f.alive]
                self._finalizers.append(weakref.finalize(holder, resource.close))
        return holder.resource

    def close(self) -> None:
        """Close every thread's resource; later calls of :meth:`get` make new ones."""
        with self._lock:
            finalizers, self._finalizers = self._finalizers, []
            self._local = threading.local()
        for finalizer in finalizers:
            finalizer()


class Transport:
    """HTTP/1.1 POSTs to one base URL over one keep-alive connection per thread.

    What the environment says about reaching the base URL is resolved once,
    here: the proxy from ``urllib.request.getproxies()`` unless
    ``proxy_bypass()`` exempts the host (HTTPS goes through a ``CONNECT``
    tunnel), the CA bundle from REQUESTS_CA_BUNDLE or CURL_CA_BUNDLE, and
    basic-auth credentials from netrc (``$NETRC``) or the URL.

    ``timeout`` is the seconds a socket waits on each connect, send and
    read: a number greater than 0 and at most ``threading.TIMEOUT_MAX``, the
    largest wait the platform supports. Anything else (0, which would make
    every socket non-blocking, a negative number, NaN, infinity, a bool) is
    a :class:`ConfigError` here, before any request.
    """

    def __init__(self, base_url: str, timeout: float):
        if type(timeout) not in (int, float) or not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(f"timeout must be > 0 and <= {threading.TIMEOUT_MAX:.0f} seconds, got {timeout!r}")
        try:
            url = urllib.parse.urlsplit(base_url)
            port = url.port
        except ValueError as e:
            raise ConfigError(f"endpoint {base_url!r}: {e}") from e
        printable = base_url.isascii() and base_url.isprintable() and " " not in base_url
        if url.scheme not in ("http", "https") or not url.hostname or not printable:
            raise ConfigError(f"endpoint must be an http:// or https:// URL of printable ASCII, got {base_url!r}")
        https = url.scheme == "https"
        port = port or (443 if https else 80)
        netloc = url.netloc.rpartition("@")[2]
        self.timeout = timeout
        self._prefix = url.path
        headers = {"Host": netloc, "Accept-Encoding": "identity", "Content-Type": "application/json"}
        auth = _netrc_auth(url.hostname)
        if auth is None and url.username:
            auth = urllib.parse.unquote(url.username), urllib.parse.unquote(url.password or "")
        if auth is not None:
            headers["Authorization"] = _basic_auth(*auth)
        self._context = _tls_context() if https else None
        self._address = (url.hostname, port)
        self._tunnel: tuple | None = None
        proxies = urllib.request.getproxies()
        proxy = None if urllib.request.proxy_bypass(netloc) else proxies.get(url.scheme) or proxies.get("all")
        if proxy:
            try:
                p = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
                proxy_port = p.port or 80
            except ValueError as e:
                raise ConfigError(f"proxy {proxy!r} for {base_url!r}: {e}") from e
            if p.scheme != "http" or not p.hostname:
                raise ConfigError(f"proxy {proxy!r} for {base_url!r}: only http:// proxies are supported")
            proxy_headers = {}
            if p.username:
                proxy_headers["Proxy-Authorization"] = _basic_auth(
                    urllib.parse.unquote(p.username), urllib.parse.unquote(p.password or "")
                )
            self._address = (p.hostname, proxy_port)
            if https:
                self._tunnel = (url.hostname, port, proxy_headers)
            else:
                # a plain HTTP proxy takes the absolute URL as the request target
                self._prefix = f"http://{netloc}{url.path}"
                headers.update(proxy_headers)
        self._head = "".join(f"{name}: {value}\r\n" for name, value in headers.items()).encode("ascii")
        self._connections = _PerThread(self._connect)

    def _connect(self) -> http.client.HTTPConnection:
        if self._context is None:
            conn = http.client.HTTPConnection(*self._address, timeout=self.timeout)
        else:
            conn = http.client.HTTPSConnection(*self._address, timeout=self.timeout, context=self._context)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn

    def connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection. It opens the socket (through the
        proxy tunnel and TLS, if any); ``post`` writes and reads on it."""
        return self._connections.get()

    def post(self, route: str, body: bytes) -> tuple[int, bytes]:
        """One attempt: the status and body of the reply. If the service had
        dropped the idle keep-alive connection, the request is sent once
        more on a new one within the same attempt."""
        # request line, headers and body in one write: http.client would send
        # the body in a second one
        request = b"POST %s HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n%s" % (
            (self._prefix + route).encode("ascii"), self._head, len(body), body
        )
        conn = self.connection()
        reused = conn.sock is not None
        while True:
            try:
                if conn.sock is None:
                    conn.connect()
                conn.sock.sendall(request)
                resp = http.client.HTTPResponse(conn.sock, method="POST")
                resp.begin()
                reply = resp.read()
                if resp.will_close:
                    conn.close()
                return resp.status, reply
            except _DROPPED:
                conn.close()
                if not reused:
                    raise
                reused = False
            except BaseException:
                conn.close()
                raise

    def close(self) -> None:
        """Close every thread's connection; later posts open new ones."""
        self._connections.close()


class ResponseCache:
    """Service replies by request digest, in one SQLite file in WAL mode.

    Each thread uses its own connection. Writes are single ``INSERT OR
    REPLACE`` statements, so concurrent writers, threads or processes,
    leave one complete row per digest. A stored value that is not a JSON
    object is a miss. A file SQLite cannot open, read or write is a
    :class:`CacheError` naming it.
    """

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, CACHE_FILE)
        self._dbs = _PerThread(self._connect)
        self._dbs.get()  # an unusable file fails here, before any request

    def _failed(self, e: sqlite3.Error) -> CacheError:
        return CacheError(f"response cache {self.path}: {e}")

    def _connect(self) -> sqlite3.Connection:
        try:
            # autocommit; a connection is used by one thread, and closed by
            # another only once that thread is done with it
            db = sqlite3.connect(self.path, timeout=30.0, isolation_level=None, check_same_thread=False)
        except sqlite3.Error as e:
            raise self._failed(e) from e
        try:
            db.execute("PRAGMA journal_mode=WAL")
            # a crash may lose the last replies, never corrupt the file: they are fetched again
            db.execute("PRAGMA synchronous=NORMAL")
            db.execute(
                "CREATE TABLE IF NOT EXISTS responses (digest TEXT PRIMARY KEY, body BLOB NOT NULL) WITHOUT ROWID"
            )
        except sqlite3.Error as e:
            db.close()
            raise self._failed(e) from e
        return db

    def get(self, digest: str) -> dict | None:
        try:
            row = self._dbs.get().execute("SELECT body FROM responses WHERE digest = ?", (digest,)).fetchone()
        except sqlite3.Error as e:
            raise self._failed(e) from e
        if row is None:
            return None
        try:
            value = json.loads(row[0])
        except (TypeError, ValueError, RecursionError):
            return None
        return value if isinstance(value, dict) else None

    def put(self, digest: str, body: bytes) -> None:
        try:
            self._dbs.get().execute("INSERT OR REPLACE INTO responses (digest, body) VALUES (?, ?)", (digest, body))
        except sqlite3.Error as e:
            raise self._failed(e) from e

    def close(self) -> None:
        """Close every thread's connection; later calls open new ones."""
        self._dbs.close()


class ServiceClient:
    """Tiny JSON POST client with bounded retries and a response cache.

    The client is the one retry layer of the pipeline (no stage retries a
    component call): a request gets ``retries + 1`` attempts, waiting
    ``BACKOFF_S * n`` seconds after failed attempt ``n``, and one that still
    fails, or that the service rejects with a 4xx status, raises
    :class:`TransportError`, which is then final. Redirects are not followed.

    ``post`` may be called from several threads at once; each thread sends
    over its own keep-alive connection (see :class:`Transport`, built once
    per client, which resolves proxies, the CA bundle and credentials). With
    a cache directory, replies are kept in its ``responses.sqlite3``
    (see :class:`ResponseCache`); per-response ``.json`` files of older
    versions are not read.

    ``log`` records one entry per successful call, in completion order,
    which is not the call order when several threads post at once: the
    ``route``, the ``request`` digest, whether it was ``cached``, the HTTP
    ``attempts`` made (0 for a cache hit), and the request and accepted
    response body sizes, ``bytes_out`` and ``bytes_in`` (0 for a cache hit).
    Call :meth:`close` when done to release connections.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        cache_dir: str | None = None,
    ):
        require_int("retries", retries)
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.cache_dir = cache_dir if cache_dir is not None else os.environ.get(CACHE_DIR_ENV)
        self.log: list[dict] = []
        self.transport = Transport(self.base_url, timeout)
        self.cache = ResponseCache(self.cache_dir) if self.cache_dir else None

    def post(self, route: str, payload: dict) -> dict:
        body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        digest = hashlib.sha256(route.encode() + b"\n" + body).hexdigest()
        if self.cache is not None:
            data = self.cache.get(digest)
            if data is not None:
                self.log.append(
                    {"route": route, "request": digest, "cached": True, "attempts": 0, "bytes_out": 0, "bytes_in": 0}
                )
                return data

        url = self.base_url + route
        last: Exception | None = None
        for attempt in range(1, self.retries + 2):
            try:
                status, reply = self.transport.post(route, body)
            except _ATTEMPT_ERRORS as e:
                last = e
            else:
                if status >= 500:
                    last = TransportError(f"{url} returned {status}")
                elif status >= 400:
                    raise TransportError(f"{url} rejected request: {status}")
                elif status >= 300:
                    raise TransportError(f"{url} answered {status}: redirects are not followed")
                else:
                    data = self._decode(reply, route)
                    if self.cache is not None:
                        self.cache.put(digest, reply)
                    self.log.append(
                        {
                            "route": route,
                            "request": digest,
                            "cached": False,
                            "attempts": attempt,
                            "bytes_out": len(body),
                            "bytes_in": len(reply),
                        }
                    )
                    return data
            if attempt <= self.retries:
                time.sleep(BACKOFF_S * attempt)
        raise TransportError(f"{url} unreachable after {self.retries + 1} attempts: {last}")

    @staticmethod
    def _decode(reply: bytes, route: str) -> dict:
        try:
            data = json.loads(reply)
        except ValueError as e:
            raise ContractError(f"{route}: response is not JSON: {e}") from e
        except RecursionError as e:
            raise ContractError(f"{route}: response JSON is nested too deeply") from e
        if not isinstance(data, dict):
            raise ContractError(f"{route}: response must be a JSON object, got {type(data).__name__}")
        return data

    def close(self) -> None:
        """Close the client's connections and cache handles; it stays usable."""
        self.transport.close()
        if self.cache is not None:
            self.cache.close()


class HttpLinker:
    def __init__(self, client: ServiceClient):
        self.client = client
        self.name = f"http:{client.base_url}/link"

    def link(self, doc: Document) -> ClusterSet:
        data = self.client.post(
            "/link",
            {"doc_id": doc.doc_id, "tokens": list(doc.tokens), "characters": list(doc.characters)},
        )
        clusters = clusters_from_json(data.get("clusters"), ContractError, "/link")
        return ClusterSet(doc.doc_id, "initialized", clusters)


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
    """An expander behind the window-local ``POST /expand``: the book-offset
    seeds go out shifted by ``-lo``, and the reply comes back shifted by ``+lo``."""

    def __init__(self, client: ServiceClient):
        self.client = client
        self.name = f"http:{client.base_url}/expand"

    def expand(self, request: ExpandRequest) -> Mapping[ClusterKey, Iterable[Mention]]:
        seeds = shift(ClusterSet(request.doc_id, "prediction", request.seeds), -request.lo)
        seeds = clusters_to_json(seeds.clusters, ContractError, "/expand")
        data = self.client.post("/expand", {"tokens": list(request.tokens), "seeds": seeds})
        # each name back to the request's own key (1, not "1")
        keys = {str(key): key for key in request.seeds}
        reply = clusters_from_json(data.get("clusters"), ContractError, "/expand", lambda name: keys.get(name, name))
        return shift(ClusterSet(request.doc_id, "prediction", reply), request.lo).clusters
