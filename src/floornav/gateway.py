"""Provider-agnostic chat completion: prompt templates, payload extraction, mock.

The three agent prompts live as text assets under prompts/. The
MockProvider answers offline and deterministically; the HttpProvider talks to
an OpenAI-style chat endpoint when one is configured.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

logger = logging.getLogger(__name__)

PROMPT_IDS = ("parser", "self_critic", "planner")
# what HttpProvider sends with every request, and how often the gateway retries transport
TEMPERATURE = 0.0
MAX_TOKENS = 4096
TRANSPORT_RETRIES = 2
PLACEHOLDER_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")


class GatewayError(RuntimeError):
    """Base error for prompt rendering, transport and payload extraction."""


class MissingBindingError(GatewayError):
    pass


class ProviderError(GatewayError):
    pass


class TransportError(ProviderError):
    pass


class AuthError(ProviderError):
    pass


class ProviderTimeout(ProviderError):
    pass


class PayloadError(GatewayError):
    """No usable structured payload in the model output."""

    def __init__(self, message: str, excerpt: str = ""):
        super().__init__(message if not excerpt else f"{message}: {excerpt!r}")
        self.excerpt = excerpt


class NoPayloadError(PayloadError):
    pass


class MalformedPayloadError(PayloadError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str

    @property
    def placeholders(self) -> tuple[str, ...]:
        return tuple(sorted(set(PLACEHOLDER_RE.findall(self.body))))


def load_template(template_id: str, prompt_dir: str | Path | None = None) -> PromptTemplate:
    """Load a prompt asset by id, from prompt_dir or the packaged defaults."""
    if template_id not in PROMPT_IDS:
        raise GatewayError(f"unknown prompt template {template_id!r}")
    if prompt_dir is not None:
        body = (Path(prompt_dir) / f"{template_id}.txt").read_text(encoding="utf-8")
    else:
        body = (resources.files(__package__) / "prompts" / f"{template_id}.txt").read_text(
            encoding="utf-8"
        )
    return PromptTemplate(template_id=template_id, body=body)


def render_prompt(template: PromptTemplate, bindings: dict[str, str]) -> str:
    """Substitute placeholder markers; every placeholder must have a binding."""
    for name in template.placeholders:
        if name not in bindings:
            raise MissingBindingError(f"missing binding: {name}")
    return PLACEHOLDER_RE.sub(
        lambda m: str(bindings[m.group(1)]) if m.group(1) in bindings else m.group(0),
        template.body,
    )


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    image_ref: str | None = None
    # set when the request was rendered from a template; the mock keys on these
    template_id: str | None = None
    bindings: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.prompt:
            raise GatewayError("prompt must be non-empty")


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str
    model_name: str
    auth_env: str = "FLOORNAV_API_KEY"
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise GatewayError("timeout must be > 0")


def fixture_key(template_id: str, bindings: dict[str, str] | tuple[tuple[str, str], ...]) -> str:
    """Stable mock key: hash of the template id plus sorted bindings."""
    items = sorted(dict(bindings).items())
    blob = template_id + "\x00" + json.dumps(items, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class MockCall:
    template_id: str | None
    bindings: dict[str, str]
    prompt: str
    response: str = ""


class MockProvider:
    """Deterministic offline provider.

    Responses resolve, in order: an exact fixture keyed by
    fixture_key(template_id, bindings); the per-template script (successive
    calls consume entries, the last repeats).
    Fixture lookups are pure functions of (template id, bindings).
    """

    def __init__(self) -> None:
        self._fixtures: dict[str, str] = {}
        self._scripts: dict[str, list[str]] = {}
        self._cursor: dict[str, int] = {}
        self.calls: list[MockCall] = []

    def add_fixture(self, key: str, text: str) -> None:
        self._fixtures[key] = text

    def fixture_for(self, template_id: str, bindings: dict[str, str], text: str) -> str:
        key = fixture_key(template_id, bindings)
        self.add_fixture(key, text)
        return key

    def script(self, template_id: str, responses: list[str]) -> None:
        if not responses:
            raise ValueError("script needs at least one response")
        self._scripts[template_id] = list(responses)
        self._cursor[template_id] = 0

    def calls_for(self, template_id: str) -> list[MockCall]:
        return [c for c in self.calls if c.template_id == template_id]

    def complete(self, request: CompletionRequest) -> str:
        call = MockCall(request.template_id, dict(request.bindings), request.prompt)
        self.calls.append(call)
        text = None
        if request.template_id is not None:
            text = self._fixtures.get(fixture_key(request.template_id, request.bindings))
        if text is None and request.template_id in self._scripts:
            entries = self._scripts[request.template_id]
            pos = self._cursor[request.template_id]
            text = entries[min(pos, len(entries) - 1)]
            self._cursor[request.template_id] = pos + 1
        if text is None:
            raise ProviderError(
                f"no mock response for template {request.template_id!r}"
            )
        call.response = text
        return text

    def save_dir(self, path: str | Path) -> None:
        """Write fixtures/scripts to a directory with a readable index.json."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        index: dict = {"fixtures": {}, "scripts": {}}
        for i, (key, text) in enumerate(sorted(self._fixtures.items())):
            fname = f"fixture_{i:03d}.txt"
            (root / fname).write_text(text, encoding="utf-8")
            index["fixtures"][key] = fname
        for tid, entries in sorted(self._scripts.items()):
            names = []
            for i, text in enumerate(entries):
                fname = f"{tid}_{i:03d}.txt"
                (root / fname).write_text(text, encoding="utf-8")
                names.append(fname)
            index["scripts"][tid] = names
        (root / "index.json").write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def load_dir(cls, path: str | Path) -> "MockProvider":
        root = Path(path)
        index_path = root / "index.json"
        if not index_path.exists():
            raise FileNotFoundError(f"no mock fixture index at {index_path}")
        index = json.loads(index_path.read_text(encoding="utf-8"))
        if not isinstance(index, dict):
            raise ValueError(f"{index_path} must hold a JSON object")
        for section in ("fixtures", "scripts"):
            if not isinstance(index.get(section, {}), dict):
                raise ValueError(f"{index_path}: {section} must be a JSON object")
        provider = cls()
        for key, fname in index.get("fixtures", {}).items():
            if not isinstance(fname, str):
                raise ValueError(f"{index_path}: fixture {key!r} must name one file, got {fname!r}")
            provider.add_fixture(key, (root / fname).read_text(encoding="utf-8"))
        for tid, names in index.get("scripts", {}).items():
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ValueError(f"{index_path}: scripts for template {tid!r} must be an array "
                                 f"of file names, got {names!r}")
            provider.script(tid, [(root / n).read_text(encoding="utf-8") for n in names])
        return provider


class HttpProvider:
    """OpenAI-style chat-completions client for a live backend."""

    def __init__(self, config: ProviderConfig):
        self.config = config

    def complete(self, request: CompletionRequest) -> str:
        import requests

        api_key = os.environ.get(self.config.auth_env)
        if not api_key:
            raise AuthError(f"no API key in ${self.config.auth_env}")

        content: object = request.prompt
        if request.image_ref:
            data = base64.b64encode(Path(request.image_ref).read_bytes()).decode("ascii")
            content = [
                {"type": "text", "text": request.prompt},
                {"type": "image_url", "image_url": {"url": f"data:image/png;base64,{data}"}},
            ]
        body = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": content}],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        try:
            response = requests.post(
                self.config.endpoint,
                json=body,
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=self.config.timeout,
            )
        except requests.Timeout as exc:
            raise ProviderTimeout(f"request timed out after {self.config.timeout}s") from exc
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if response.status_code in (401, 403):
            raise AuthError(f"authentication rejected ({response.status_code})")
        if response.status_code >= 400:
            raise TransportError(f"HTTP {response.status_code}: {response.text[:200]}")
        try:
            return response.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, ValueError) as exc:
            raise TransportError(f"unexpected response shape: {exc}") from exc


class LlmGateway:
    """Renders agent prompts and completes them against the configured provider."""

    def __init__(self, provider, prompt_dir: str | Path | None = None):
        self.provider = provider
        self.prompt_dir = prompt_dir
        self._templates: dict[str, PromptTemplate] = {}

    def template(self, template_id: str) -> PromptTemplate:
        if template_id not in self._templates:
            self._templates[template_id] = load_template(template_id, self.prompt_dir)
        return self._templates[template_id]

    def render(self, template_id: str, bindings: dict[str, str]) -> str:
        return render_prompt(self.template(template_id), bindings)

    def complete(self, request: CompletionRequest) -> str:
        attempt = 0
        while True:
            try:
                return self.provider.complete(request)
            except TransportError:
                if attempt >= TRANSPORT_RETRIES:
                    raise
                attempt += 1
                logger.warning("transport failure, retry %d/%d", attempt, TRANSPORT_RETRIES)

    def complete_template(
        self,
        template_id: str,
        bindings: dict[str, str],
        image_ref: str | None = None,
    ) -> str:
        prompt = self.render(template_id, bindings)
        request = CompletionRequest(
            prompt=prompt,
            image_ref=image_ref,
            template_id=template_id,
            bindings=tuple(sorted((k, str(v)) for k, v in bindings.items())),
        )
        return self.complete(request)


def _balanced_span(text: str, start: int) -> int | None:
    """Index one past a balanced {...}/[...] run starting at `start`, else None."""
    pairs = {"{": "}", "[": "]"}
    stack = [pairs[text[start]]]
    in_string = False
    escaped = False
    for i in range(start + 1, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch in pairs:
            stack.append(pairs[ch])
        elif ch in ("}", "]"):
            if not stack or ch != stack.pop():
                return None
            if not stack:
                return i + 1
    return None


def extract_structured_payload(text: str):
    """Pull the first balanced JSON object/array out of model output.

    Strips surrounding prose and code fences implicitly by scanning for the
    first balanced candidate. Raises NoPayloadError when nothing balanced is
    found and MalformedPayloadError when the balanced run is not valid JSON.
    """
    for i, ch in enumerate(text):
        if ch not in "{[":
            continue
        end = _balanced_span(text, i)
        if end is None:
            continue
        candidate = text[i:end]
        try:
            return json.loads(candidate)
        except json.JSONDecodeError as exc:
            raise MalformedPayloadError(
                f"balanced payload is not valid JSON ({exc.msg})", candidate[:200]
            ) from exc
    raise NoPayloadError("no balanced JSON object or array found", text[:200])
