"""fedleak: federated-learning simulator and label-count recovery toolkit."""
