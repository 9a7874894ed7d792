"""Few-shot abstractive summarization with soft prompts and a frozen backbone."""

__version__ = "0.1.0"
