//! The paper's first example (Fig. 1): a client sends a request to a
//! key-value store on a server; the server responds.
//!
//! ```haskell
//! kvs request stateRef = do
//!   request' <- (client, request) ~> server
//!   response <- locally server \un ->
//!     handleRequest (un server request') (un server stateRef)
//!   (server, response) ~> client
//! ```

use crate::roles::{Client, Primary};
use crate::store::{Request, Response, SharedStore};
use chorus_core::{
    ChoreoOp, Choreography, ChoreographyLocation, Located, RoleProgram, SessionCx, Step,
    TransportError,
};

/// The census of the simple KVS: one client, one server.
pub type SimpleKvsCensus = chorus_core::LocationSet!(Client, Primary);

/// One request/response round trip against a single server (Fig. 1).
///
/// The server's state is a [`SharedStore`] located at [`Primary`]; the
/// client's request is located at [`Client`]. Each endpoint supplies its
/// own half via `Session::local` and the placeholder for the other via
/// `Session::remote`.
pub struct SimpleKvs {
    /// The client's request.
    pub request: Located<Request, Client>,
    /// The server's store.
    pub state: Located<SharedStore, Primary>,
}

impl Choreography<Located<Response, Client>> for SimpleKvs {
    type L = SimpleKvsCensus;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<Response, Client> {
        // send the request to the server
        let request = op.comm(Client, Primary, &self.request);
        // server handles the request and creates a response
        let response = op.locally(Primary, |un| {
            let state = un.unwrap_ref(&self.state);
            handle_request(un.unwrap_ref(&request), state)
        });
        // server sends the response back to the client
        op.comm(Primary, Client, &response)
    }
}

/// The server's local request handler (Fig. 1's `handleRequest`).
pub fn handle_request(request: &Request, state: &SharedStore) -> Response {
    match request {
        Request::Put(key, value) => state.put(key, value),
        Request::Get(key) => state.get(key),
        Request::Stop => Response::Stopped,
    }
}

/// [`SimpleKvs`] projected to [`Client`] as a resumable state machine
/// for the pooled session runtime — the explicit-FSM form of exactly
/// the sends and receives `Session::epp_and_run(SimpleKvs)` performs at
/// the client, so pooled clients interoperate with blocking servers
/// (and vice versa) frame for frame.
///
/// States: send the request (once), then poll for the response.
pub struct PooledKvsClient {
    request: Option<Request>,
}

impl PooledKvsClient {
    /// A client that will issue `request` and resolve with the server's
    /// response.
    pub fn new(request: Request) -> Self {
        PooledKvsClient { request: Some(request) }
    }
}

impl RoleProgram for PooledKvsClient {
    type Output = Response;

    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<Self::Output>, TransportError> {
        // Sends never block, but must happen exactly once across
        // resumes: taking the request out of the Option is the state
        // transition.
        if let Some(request) = self.request.take() {
            cx.send_value(Primary::NAME, &request)?;
        }
        match cx.try_receive_value::<Response>(Primary::NAME)? {
            Some(response) => Ok(Step::Done(response)),
            None => Ok(Step::Pending),
        }
    }
}

/// [`SimpleKvs`] projected to [`Primary`] as a resumable state machine
/// for the pooled session runtime: poll for the request, handle it
/// against the store, send the response, done.
pub struct PooledKvsServer {
    state: SharedStore,
}

impl PooledKvsServer {
    /// A server answering one request against `state`.
    pub fn new(state: SharedStore) -> Self {
        PooledKvsServer { state }
    }
}

impl RoleProgram for PooledKvsServer {
    type Output = ();

    fn resume(&mut self, cx: &mut SessionCx<'_>) -> Result<Step<Self::Output>, TransportError> {
        let Some(request) = cx.try_receive_value::<Request>(Client::NAME)? else {
            return Ok(Step::Pending);
        };
        let response = handle_request(&request, &self.state);
        cx.send_value(Client::NAME, &response)?;
        Ok(Step::Done(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_core::Runner;

    #[test]
    fn put_then_get_round_trips() {
        let runner: Runner<SimpleKvsCensus> = Runner::new();
        let store = SharedStore::new();

        let put = SimpleKvs {
            request: runner.local(Request::Put("lang".into(), "rust".into())),
            state: runner.local(store.clone()),
        };
        assert_eq!(runner.unwrap_located(runner.run(put)), Response::NotFound);

        let get = SimpleKvs {
            request: runner.local(Request::Get("lang".into())),
            state: runner.local(store),
        };
        assert_eq!(runner.unwrap_located(runner.run(get)), Response::Found("rust".into()));
    }

    #[test]
    fn stop_is_acknowledged() {
        let runner: Runner<SimpleKvsCensus> = Runner::new();
        let choreo = SimpleKvs {
            request: runner.local(Request::Stop),
            state: runner.local(SharedStore::new()),
        };
        assert_eq!(runner.unwrap_located(runner.run(choreo)), Response::Stopped);
    }
}
