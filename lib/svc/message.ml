(* The protocol's message catalogue lives with the protocol in [Ftr_p2p];
   re-exported here so service clients can keep naming [Ftr_svc.Message]. *)
include Ftr_p2p.Message
