"""Action text grammar, prompt templates, policies, and reward models.

The text protocol is one action per reply, optionally preceded by a
stated score line:

    Current mIoU: 73
    Positive point: (0.175, 0.483)

Clicks carry two coordinates, boxes four. Two coordinate formats exist:
``decimal_0_1`` renders three decimals, ``integer_0_1000`` renders
round(x*1000) clamped to [0, 999] and parses n back as n/1000. Parsing
is tolerant about whitespace and verb casing but rejects anything else
with a distinct error code.

Policies are pure: ``propose(task, state, k, seed)`` depends only on its
arguments (and, for a remote policy, on the service), so rollouts, star
and search share one policy object across tasks and threads.
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from . import remote
from .env import Action, EpisodeState, Task
from .errors import ActionParseError, TemplateError
from .expert import click_for
from .raster import BitMask, GREEN, NormBox, check_same_shape, iou
from .util import mix_seed, round_half_up

COORD_DECIMAL = "decimal_0_1"
COORD_INT = "integer_0_1000"
COORD_FORMATS = (COORD_DECIMAL, COORD_INT)

_TEMPLATES = {
    "default": (
        "You are annotating an object mask with an interactive segmentation tool. "
        "The image shows the current mask as a semi-transparent colored overlay. "
        "Reply with exactly one action to improve the mask:\n"
        "Positive point: (x, y) places a point on the object where the mask misses it.\n"
        "Negative point: (x, y) places a point where the mask wrongly covers background.\n"
        "Object to segment: {description}"
    ),
    "bare": "Improve the mask of: {description}",
}


def render_prompt(template_id: str, description: str) -> str:
    """Fill a registered prompt template with the task description."""
    try:
        template = _TEMPLATES[template_id]
    except KeyError:
        raise TemplateError(f"unknown template id {template_id!r}")
    return template.format(description=description)


@dataclass(frozen=True)
class PromptConfig:
    """Rendering and grammar knobs for text-facing components."""

    coord_format: str = COORD_DECIMAL
    mask_color: tuple[int, int, int] = GREEN
    alpha: float = 0.5
    template_id: str = "default"
    miou_line: bool = False

    def __post_init__(self):
        if self.coord_format not in COORD_FORMATS:
            raise ValueError(f"unknown coordinate format {self.coord_format!r}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha out of [0, 1]: {self.alpha}")
        render_prompt(self.template_id, "")  # fail fast on unknown templates


def miou_percent(reward: float) -> int:
    """Integer percentage used on 'Current mIoU' lines, halves round up."""
    return round_half_up(100.0 * reward)


def miou_line(reward: float) -> str:
    """The grammar's score line, 'Current mIoU: NN', for a reward in [0, 1]."""
    return f"Current mIoU: {miou_percent(reward)}"


def _fmt_coord(v: float, coord_format: str) -> str:
    v += 0.0  # -0.0 + 0.0 is 0.0: the grammar prints no sign
    if coord_format == COORD_INT:
        return str(min(999, int(math.floor(v * 1000.0 + 0.5))))
    s = f"{v:.3f}"
    # 3-decimal rounding can spill to 1.000, which the grammar forbids
    if float(s) >= 1.0:
        s = "0.999"
    return s


def format_action(action: Action, coord_format: str = COORD_DECIMAL) -> str:
    """Render an action in the text grammar."""
    if coord_format not in COORD_FORMATS:
        raise ValueError(f"unknown coordinate format {coord_format!r}")
    if action.is_click:
        verb = "Positive point" if action.sign > 0 else "Negative point"
        x = _fmt_coord(action.point.x, coord_format)
        y = _fmt_coord(action.point.y, coord_format)
        return f"{verb}: ({x}, {y})"
    b = action.box
    coords = ", ".join(_fmt_coord(v, coord_format) for v in (b.x1, b.y1, b.x2, b.y2))
    return f"Box: ({coords})"


_MIOU_RE = re.compile(r"^current\s+miou\s*:\s*(\S+)\s*$", re.IGNORECASE)
_ACTION_RE = re.compile(
    r"^(positive\s+point|negative\s+point|box)\s*:?\s*\(\s*(.*?)\s*\)\s*$",
    re.IGNORECASE,
)
_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_coord(token: str, coord_format: str) -> float:
    if coord_format == COORD_INT:
        if not _INT_RE.match(token):
            raise ActionParseError("malformed_number", f"expected an integer, got {token!r}")
        n = int(token)
        if not (0 <= n <= 999):
            raise ActionParseError("out_of_range", f"integer coordinate {n} outside [0, 999]")
        return n / 1000.0
    try:
        v = float(token)
    except ValueError:
        raise ActionParseError("malformed_number", f"bad number {token!r}")
    if not math.isfinite(v):
        raise ActionParseError("malformed_number", f"non-finite number {token!r}")
    if not (0.0 <= v < 1.0):
        raise ActionParseError("out_of_range", f"coordinate {v} outside [0, 1)")
    return v


def parse_stated_miou(line: str) -> float:
    """Parse a 'Current mIoU: NN' line into a [0, 1] ratio."""
    m = _MIOU_RE.match(line.strip())
    if not m:
        raise ActionParseError("unknown_verb", f"not a mIoU line: {line!r}")
    token = m.group(1)
    if not _INT_RE.match(token):
        raise ActionParseError("malformed_number", f"mIoU value {token!r} is not an integer")
    n = int(token)
    if not (0 <= n <= 100):
        raise ActionParseError("out_of_range", f"mIoU {n} outside [0, 100]")
    return n / 100.0


def parse_action(text: str, coord_format: str = COORD_DECIMAL) -> tuple[float | None, Action]:
    """Parse reply text into (stated_reward or None, action).

    The first nonblank line may be a 'Current mIoU' line; the next must
    be an action; anything after that is rejected.
    """
    if coord_format not in COORD_FORMATS:
        raise ValueError(f"unknown coordinate format {coord_format!r}")
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ActionParseError("empty_input", "no action text")
    stated: float | None = None
    if _MIOU_RE.match(lines[0]) or lines[0].lower().startswith("current miou"):
        stated = parse_stated_miou(lines[0])
        lines = lines[1:]
        if not lines:
            raise ActionParseError("empty_input", "mIoU line without an action")
    if len(lines) > 1:
        raise ActionParseError("unknown_verb", f"unexpected trailing line {lines[1]!r}")
    m = _ACTION_RE.match(lines[0])
    if not m:
        raise ActionParseError("unknown_verb", f"unrecognized action line {lines[0]!r}")
    verb = re.sub(r"\s+", " ", m.group(1).lower())
    tokens = [t.strip() for t in m.group(2).split(",")] if m.group(2).strip() else []
    arity = 4 if verb == "box" else 2
    if len(tokens) != arity:
        raise ActionParseError(
            "malformed_number", f"{verb} takes {arity} coordinates, got {len(tokens)}"
        )
    coords = [_parse_coord(t, coord_format) for t in tokens]
    if verb == "box":
        try:
            box = NormBox(coords[0], coords[1], coords[2], coords[3])
        except ValueError as e:
            raise ActionParseError("out_of_range", str(e))
        return stated, Action.box_prompt(box)
    point = (coords[0], coords[1])
    if verb == "positive point":
        return stated, Action.positive(*point)
    return stated, Action.negative(*point)


# --- policies -------------------------------------------------------------


def dedupe(actions: list[Action]) -> list[Action]:
    """Keep the first of the actions that print the same in integer_0_1000:
    coordinates taken at the grammar's 1/1000 resolution."""
    seen: set[str] = set()
    out: list[Action] = []
    for a in actions:
        key = format_action(a, COORD_INT)
        if key not in seen:
            seen.add(key)
            out.append(a)
    return out


@dataclass(frozen=True)
class NoiseConfig:
    """Perturbation model for the noisy expert: coordinate jitter plus
    occasional sign flips, all driven by one seed."""

    sigma: float = 0.0
    flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ValueError(f"flip_prob out of [0, 1]: {self.flip_prob}")


_TOP = math.nextafter(1.0, 0.0)


def _clamp01(v: float) -> float:
    return min(max(v, 0.0), _TOP)


def expert_propose(
    task: Task,
    state: EpisodeState,
    k: int,
    noise: NoiseConfig | None = None,
    task_seed: int | None = None,
) -> list[Action]:
    """Up to k proposed actions around the expert click.

    Pure in its arguments: the perturbation RNG is derived from the noise
    seed, the per-task seed, and the episode position, so identical calls
    give identical lists. Returns [] once the mask matches the target.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    base = click_for(task, state.mask)
    if base is None:
        return []
    if noise is None or (noise.sigma == 0.0 and noise.flip_prob == 0.0):
        return [base]
    entropy = [
        noise.seed & 0xFFFFFFFF,
        (task_seed if task_seed is not None else mix_seed(task.id)) & 0xFFFFFFFF,
        state.step,
        len(state.history),
    ]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    proposals: list[Action] = []
    for _ in range(k):
        dx, dy = rng.normal(0.0, noise.sigma, size=2)
        flip = bool(rng.random() < noise.flip_prob)
        x = _clamp01(base.point.x + dx)
        y = _clamp01(base.point.y + dy)
        kind = base.kind
        if flip:
            kind = "negative_click" if kind == "positive_click" else "positive_click"
        proposals.append(Action.positive(x, y) if kind == "positive_click" else Action.negative(x, y))
    return dedupe(proposals)


class Policy(ABC):
    """Proposal source for rollouts and search; ``propose`` is a pure
    function of its arguments, ``seed`` being the run seed."""

    @abstractmethod
    def propose(
        self, task: Task, state: EpisodeState, k: int, seed: int | None = None
    ) -> list[Action]:
        raise NotImplementedError


class ExpertPolicy(Policy):
    """Zero-noise expert: one deterministic proposal."""

    def propose(self, task, state, k, seed=None):
        return expert_propose(task, state, k)


class NoisyExpertPolicy(Policy):
    """Expert plus seeded jitter and sign flips; the stream of each task
    depends on the noise seed, the run seed and the task id."""

    def __init__(self, noise: NoiseConfig):
        self.noise = noise

    def propose(self, task, state, k, seed=None):
        return expert_propose(task, state, k, noise=self.noise, task_seed=mix_seed(seed, task.id))


class RemotePolicy(Policy):
    """Samples action texts from a remote service and parses them; the
    service sees the image, the mask and the overlay style.

    Unparseable replies are dropped rather than raised; transport errors
    propagate. A leading 'Current mIoU' line is checked by the parser and
    then dropped.
    """

    def __init__(self, endpoint: remote.RemoteEndpoint, prompt_config: PromptConfig = PromptConfig()):
        self.endpoint = endpoint
        self.prompt_config = prompt_config

    def propose(self, task, state, k, seed=None):
        pc = self.prompt_config
        prompt = render_prompt(pc.template_id, task.prompt)
        texts = remote.call_policy(self.endpoint, task, state.mask, prompt, k, pc.mask_color, pc.alpha)
        proposals: list[Action] = []
        for text in texts:
            try:
                _, action = parse_action(text, self.prompt_config.coord_format)
            except ActionParseError:
                continue
            proposals.append(action)
        return dedupe(proposals)


# --- process reward models -------------------------------------------------


class Prm(ABC):
    """Scores a (task, mask) pair in [0, 1]; higher is better."""

    @abstractmethod
    def score(self, task: Task, mask: BitMask) -> float:
        raise NotImplementedError


class OraclePrm(Prm):
    """True IoU against the task's target."""

    def score(self, task, mask):
        return iou(mask, task.target)


class NoisyPrm(Prm):
    """Oracle plus Gaussian noise, clamped to [0, 1].

    The noise is a pure function of (seed, task, mask), so re-scoring the
    same mask gives the same value, which keeps search traces coherent.
    """

    def __init__(self, sigma: float, seed: int = 0):
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.sigma = sigma
        self.seed = seed

    def score(self, task, mask):
        base = iou(mask, task.target)
        if self.sigma == 0.0:
            return base
        entropy = [
            self.seed & 0xFFFFFFFF,
            mix_seed(task.id),
            mix_seed(mask.data.tobytes()),
        ]
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        return float(min(max(base + rng.normal(0.0, self.sigma), 0.0), 1.0))


class RemotePrm(Prm):
    """Asks a remote scorer for a 'Current mIoU' verdict on the mask, sent
    with the image and the overlay style."""

    def __init__(self, endpoint: remote.RemoteEndpoint, prompt_config: PromptConfig = PromptConfig()):
        self.endpoint = endpoint
        self.prompt_config = prompt_config

    def score(self, task, mask):
        pc = self.prompt_config
        prompt = render_prompt(pc.template_id, task.prompt)
        return remote.call_prm(self.endpoint, task, mask, prompt, pc.mask_color, pc.alpha)


def prm_score(prm: Prm, task: Task, mask: BitMask) -> float:
    """Score a mask after checking it matches the task's dimensions."""
    check_same_shape(mask, task.image)
    return prm.score(task, mask)
