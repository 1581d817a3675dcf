"""Tests for the travel-agent scenario (paper §3.1/§4.3, Figures 3 & 8)."""

import pytest

from repro.apps.travel import (
    AIRLINE_NAMES,
    HOTEL_NAMES,
    TravelAgent,
    airline_ns,
    deploy_travel_system,
    make_airline_service,
    make_credit_card_service,
    make_hotel_service,
    validate_itinerary,
)
from repro.soap.fault import ClientFaultCause

from ..metrics import counters, sketches


class TestAirlineService:
    @pytest.fixture
    def airline(self):
        return make_airline_service("AirChina", 480)

    def test_query_flights(self, airline):
        flights = airline.invoke(
            "queryFlights", {"origin": "PEK", "destination": "SHA"}
        )
        assert len(flights) == 3
        assert flights[0]["price"] == 480
        assert all(f["airline"] == "AirChina" for f in flights)

    def test_reserve_and_confirm(self, airline):
        reservation = airline.invoke("reserveFlight", {"flightId": "F1"})
        assert reservation.startswith("FL-AirChina-")
        status = airline.invoke(
            "confirmReservation",
            {"reservationId": reservation, "authorizationId": "AUTH-1"},
        )
        assert status == "OK"
        assert airline.reservation_book.confirmed_count() == 1

    def test_confirm_unknown_reservation_faults(self, airline):
        with pytest.raises(ClientFaultCause):
            airline.invoke(
                "confirmReservation",
                {"reservationId": "nope", "authorizationId": "AUTH-1"},
            )

    def test_confirm_without_authorization_faults(self, airline):
        reservation = airline.invoke("reserveFlight", {"flightId": "F1"})
        with pytest.raises(ClientFaultCause):
            airline.invoke(
                "confirmReservation",
                {"reservationId": reservation, "authorizationId": ""},
            )


class TestHotelAndCredit:
    def test_query_rooms(self):
        hotel = make_hotel_service("LakeView", 120)
        rooms = hotel.invoke("queryRooms", {"city": "Beijing"})
        assert len(rooms) == 3
        assert rooms[0]["ratePerNight"] == 120
        assert {r["category"] for r in rooms} == {"standard", "deluxe", "suite"}

    def test_authorize_payment(self):
        credit = make_credit_card_service()
        auth = credit.invoke("authorizePayment", {"account": "ACCT-1", "amount": 500})
        assert auth.startswith("AUTH-")

    def test_bad_account_faults(self):
        credit = make_credit_card_service()
        with pytest.raises(ClientFaultCause):
            credit.invoke("authorizePayment", {"account": "bogus", "amount": 1})

    def test_nonpositive_amount_faults(self):
        credit = make_credit_card_service()
        with pytest.raises(ClientFaultCause):
            credit.invoke("authorizePayment", {"account": "ACCT-1", "amount": 0})


@pytest.fixture
def system():
    with deploy_travel_system() as (sys_, transport):
        yield sys_, transport


class TestTravelAgentEndToEnd:
    @pytest.mark.parametrize("use_packing", [False, True])
    def test_booking_succeeds(self, system, use_packing):
        sys_, transport = system
        agent = TravelAgent(
            transport,
            sys_.airline_address,
            sys_.hotel_address,
            sys_.credit_address,
            use_packing=use_packing,
        )
        itinerary = agent.book_vacation("PEK", "SHA")
        agent.close()
        validate_itinerary(itinerary)
        assert itinerary.flight["price"] == 480  # cheapest airline's cheapest
        assert itinerary.room["ratePerNight"] == 120
        assert itinerary.total_price == 600

    def test_unoptimized_sends_eleven_messages(self, system):
        sys_, transport = system
        agent = TravelAgent(
            transport, sys_.airline_address, sys_.hotel_address, sys_.credit_address
        )
        itinerary = agent.book_vacation("PEK", "SHA")
        agent.close()
        assert itinerary.soap_messages == 11

    def test_packed_sends_seven_messages(self, system):
        """Steps 1 and 3 collapse from three messages to one each."""
        sys_, transport = system
        agent = TravelAgent(
            transport,
            sys_.airline_address,
            sys_.hotel_address,
            sys_.credit_address,
            use_packing=True,
        )
        itinerary = agent.book_vacation("PEK", "SHA")
        agent.close()
        assert itinerary.soap_messages == 7

    def test_server_side_message_counts(self, system):
        sys_, transport = system
        agent = TravelAgent(
            transport,
            sys_.airline_address,
            sys_.hotel_address,
            sys_.credit_address,
            use_packing=True,
        )
        agent.book_vacation("PEK", "SHA")
        agent.close()
        # airline node: 1 packed query + reserve + confirm = 3 messages,
        # but 3 + 2 = 5 operations executed
        assert counters(sys_.airline_server)["soap.messages"] == 3
        assert sketches(sys_.airline_server)["soap.pack_degree"]["sum"] == 5
        assert counters(sys_.hotel_server)["soap.messages"] == 3
        assert sketches(sys_.hotel_server)["soap.pack_degree"]["sum"] == 5
        assert counters(sys_.credit_server)["soap.messages"] == 1

    def test_both_modes_agree_on_itinerary(self, system):
        sys_, transport = system
        plain = TravelAgent(
            transport, sys_.airline_address, sys_.hotel_address, sys_.credit_address
        )
        packed = TravelAgent(
            transport,
            sys_.airline_address,
            sys_.hotel_address,
            sys_.credit_address,
            use_packing=True,
        )
        a = plain.book_vacation("PEK", "SHA")
        b = packed.book_vacation("PEK", "SHA")
        plain.close()
        packed.close()
        assert a.flight["flightId"] == b.flight["flightId"]
        assert a.room["roomId"] == b.room["roomId"]
        assert a.total_price == b.total_price

    def test_reservations_confirmed_server_side(self, system):
        sys_, transport = system
        agent = TravelAgent(
            transport,
            sys_.airline_address,
            sys_.hotel_address,
            sys_.credit_address,
            use_packing=True,
        )
        itinerary = agent.book_vacation("PEK", "SHA")
        agent.close()
        airline = sys_.airline_server.container.service_for(
            airline_ns(itinerary.flight["airline"])
        )
        assert airline.reservation_book.confirmed_count() == 1


def test_constants_shape():
    assert len(AIRLINE_NAMES) == 3
    assert len(HOTEL_NAMES) == 3
