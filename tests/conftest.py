"""Shared fixtures: published figure fragments and mission packages."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from asslkit import check_all, parse_text
from asslkit.missions import (
    all_missions,
    ants_self_configuring_and_scheduling,
    ants_self_healing,
    ants_self_protecting,
    voyager_image_processing,
)

# The published self-protecting policy fragment, verbatim (original line
# breaks and brace placement included).
FIG_POLICY = """\
SELF_PROTECTING {
 FLUENT inSecurityCheck {
  INITIATED_BY { EVENTS.privateMessageIsComming }
  TERMINATED_BY { EVENTS.privateMessageSecure,
                  EVENTS.privateMessageInsecure }}
 MAPPING {
  CONDITIONS { inSecurityCheck}
  DO_ACTIONS { ACTIONS.checkPrivateMessage }}}
"""

# The published policy events fragment, verbatim.
FIG_EVENTS = """\
EVENT privateMessageIsComming {
 ACTIVATION { SENT { AEIP.MESSAGES.privateMessage }}}
EVENT privateMessageInsecure {
 GUARDS { NOT METRICS.thereIsInsecureMsg }
 ACTIVATION { CHANGED { METRICS.thereIsInsecureMsg }}}
EVENT privateMessageSecure {
 GUARDS { METRICS.thereIsInsecureMsg }
 ACTIVATION { CHANGED { METRICS.thereIsInsecureMsg }}}
"""

# The published action fragment elides clause bodies with "...."; the filled
# reconstruction lives in the shipped mission spec. This skeleton records
# the verbatim parts tests assert on.
FIG_ACTION_CALL = "senderIdentified = call ACTIONS.checkSenderCertificate;"


def figures_wrapped(policy_text: str = FIG_POLICY, events_text: str = FIG_EVENTS) -> str:
    """The figure fragments embedded verbatim in a minimal checkable spec."""
    return f"""\
AS ants {{
}}
AE worker {{
  POLICIES {{
{policy_text}
  }}
  EVENTS {{
{events_text}
    EVENT messageQuarantined {{ }}
  }}
  ACTIONS {{
    ACTION checkPrivateMessage {{
      GUARDS {{ FLUENTS.inSecurityCheck }}
      ENSURES {{ METRICS.verdictRead }}
      DOES {{
        {FIG_ACTION_CALL}
        METRICS.verdictRead = true;
        METRICS.thereIsInsecureMsg = METRICS.messageVerdictSecure;
      }}
      ONERR_DOES {{ METRICS.verdictRead = false; }}
      ONERR_TRIGGERS {{ EVENTS.messageQuarantined }}
    }}
    ACTION checkSenderCertificate {{
      DOES {{ METRICS.certificateChecked = true; }}
    }}
  }}
  METRICS {{
    METRIC thereIsInsecureMsg {{ TYPE {{ boolean }} INITIAL {{ false }} }}
    METRIC messageVerdictSecure {{ TYPE {{ boolean }} INITIAL {{ true }} }}
    METRIC verdictRead {{ TYPE {{ boolean }} INITIAL {{ false }} }}
    METRIC certificateChecked {{ TYPE {{ boolean }} INITIAL {{ false }} }}
  }}
  AEIP {{
    MESSAGES {{
      MESSAGE privateMessage {{ SENDER {{ ants }} RECEIVER {{ worker }} }}
    }}
    CHANNELS {{
      CHANNEL secureLink {{ CAPACITY {{ 4 }} }}
    }}
  }}
}}
"""


# Verify environment closures documented in each package README; an empty
# closure means the default environment.
README_ENVS = {
    "ants_self_protecting": (
        "send privateMessage secureLink",
        "set messageVerdictSecure true",
        "set messageVerdictSecure false",
        "tick",
    ),
    "ants_self_healing": (
        "tick",
        "set worker.alive false",
        "set worker.alive true",
    ),
    "ants_self_configuring_and_scheduling": (),
    "voyager_image_processing": (),
}


@pytest.fixture(scope="session")
def figures_spec():
    spec = check_all(parse_text(figures_wrapped(), "figures.assl"))
    assert spec.ok
    return spec


@pytest.fixture(scope="session")
def protecting_pkg():
    return ants_self_protecting()


@pytest.fixture(scope="session")
def protecting_spec(protecting_pkg):
    return protecting_pkg.load()


@pytest.fixture(scope="session")
def healing_pkg():
    return ants_self_healing()


@pytest.fixture(scope="session")
def healing_spec(healing_pkg):
    return healing_pkg.load()


@pytest.fixture(scope="session")
def config_pkg():
    return ants_self_configuring_and_scheduling()


@pytest.fixture(scope="session")
def config_spec(config_pkg):
    return config_pkg.load()


@pytest.fixture(scope="session")
def voyager_pkg():
    return voyager_image_processing()


@pytest.fixture(scope="session")
def voyager_spec(voyager_pkg):
    return voyager_pkg.load()


@pytest.fixture(scope="session")
def mission_pairs():
    """(package, checked spec) for every shipped mission."""
    return tuple((pkg, pkg.load()) for pkg in all_missions())
