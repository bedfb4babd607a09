"""Desk-scale simulator of social caching in a DHT-backed social network."""

from .info_cache import CacheEntry, CurrentCache, LookupSource
from .metrics import (
    Counters,
    MetricsLedger,
    cache_hit_ratio,
    hit_ratio,
    responses_per_item,
)
from .model import (
    ContentObject,
    InteractionKind,
    InvalidKeyError,
    SimTime,
    StorageKey,
    UserId,
)
from .overlay import (
    DhtStore,
    InvalidEnvelopeError,
    MessageDispatcher,
    MessageEnvelope,
    MessageKind,
    StaleWriteError,
)
from .peer import NotOwnerError, Peer
from .sim import RunResult, Simulation, compare_caches, compare_strategies, run_scenario
from .social_cache import (
    CapExceededError,
    InvalidWeightsError,
    MucList,
    SelectionTrigger,
    SocialCache,
    SocialStore,
    Strategy,
    StrategyConfig,
    SubscriptionDiff,
    SubscriptionSet,
    UnknownUserError,
)
from .workload import (
    CacheSetup,
    ConfigError,
    CurrentCacheConfig,
    DatasetStats,
    ScenarioConfig,
    Trace,
    TraceEvent,
    TraceFormatError,
    generate_trace,
    load_trace,
    sampled_interval,
    save_trace,
    trace_digest,
)

__version__ = "0.1.0"
