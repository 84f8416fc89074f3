"""Geometric symbol messages over simulated carrier waves."""

from .framing import (
    BitFrame,
    GridInfo,
    PauseKind,
    frame_message,
    frame_to_text,
    majority_vote,
)
from .glyphs import DEFAULT_DIMS, Glyph, bitmap_of, glyph_sequence
from .modem import ModemConfig, Waveform, demodulate, load_config, modulate, read_wav, save_config, write_wav
from .notation import Message, SymbolKind, SymbolSpec, canonical_messages, parse_dsl, print_dsl
from .pipeline import (
    ChannelConfig,
    DecodeReport,
    apply_channel,
    message_frame,
    message_glyphs,
    parse_glyphs_to_message,
    receive,
    transmit,
)
from .raster import compose_strip, export_pbm

__version__ = "0.1.0"
